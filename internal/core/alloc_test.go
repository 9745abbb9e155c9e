package core

// Allocation-audit guards for the per-session hot path: the fast-path
// rewrites (memoized topologies, one-pass prompt costing, scratch reuse in
// the matcher) must stay behavior-identical to the straightforward
// implementations they replaced, and the benchmark pins what one executed
// command costs in allocations.

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/uia"
	"repro/internal/ung"
)

// TestPromptStatsMatchesCapture: the one-pass PromptStats must agree with
// the LabelMap it bypasses — same control count, byte-identical passive
// payload — including on screens past 26 controls where labels go
// multi-character.
func TestPromptStatsMatchesCapture(t *testing.T) {
	bigGrid := func() *Session {
		a := appkit.New("GridApp")
		grid := uia.NewElement("grdBig", "BigGrid", uia.DataGridControl)
		a.Window().Custom(grid)
		for i := 0; i < 30; i++ {
			it := uia.NewElement("", fmt.Sprintf("C%02d", i), uia.DataItemControl)
			it.SetPattern(uia.ValuePattern, uia.NewValue(fmt.Sprintf("v%d", i), nil))
			grid.AddChild(it)
		}
		return NewSession(a, nil, Options{})
	}
	for name, app := range map[string]func() *Session{
		"test-app": func() *Session { return NewSession(newTestApp().App, nil, Options{}) },
		"big-grid": bigGrid,
	} {
		t.Run(name, func(t *testing.T) {
			s := app()
			lm := s.CaptureLabels()
			wantPassive := s.PassiveTexts(lm, 24)
			n, passive := s.PromptStats(24)
			if n != lm.Len() {
				t.Errorf("PromptStats counted %d controls, CaptureLabels %d", n, lm.Len())
			}
			if passive != wantPassive {
				t.Errorf("passive payload diverged:\nPromptStats:\n%s\nPassiveTexts:\n%s", passive, wantPassive)
			}
		})
	}
}

// TestTopologySerializationsMemoized: the session accessors must return
// exactly what a live Serialize produces — memoization is a cache, not a
// variant rendering.
func TestTopologySerializationsMemoized(t *testing.T) {
	s, m := modelOf(t, newTestApp().App, Options{})
	if s.Model.Core() != m.Serialize(describe.CoreOptions()) {
		t.Error("memoized core topology differs from a live Serialize")
	}
	if s.FullTopology() != m.Serialize(describe.FullOptions()) {
		t.Error("memoized full topology differs from a live Serialize")
	}
}

// TestAncestorOverlapPath pins the split-free overlap scoring against the
// set-based definition it replaced: |path ∩ b| / max(|path segments|, |b|).
func TestAncestorOverlapPath(t *testing.T) {
	cases := []struct {
		path string
		b    []string
		want float64
	}{
		{"", nil, 1},
		{"", []string{"Home"}, 0},
		{"Home", nil, 0},
		{"Home/Font", []string{"Home", "Font"}, 1},
		{"Home/Font", []string{"Font", "Home"}, 1},
		{"Home/Font", []string{"Home"}, 0.5},
		{"Home", []string{"Home", "Font", "Extra"}, 1.0 / 3},
		{"Home/Font", []string{"Insert", "Tables"}, 0},
		// Duplicates in the element chain each count (as the set version did).
		{"Home/Font", []string{"Home", "Home"}, 1},
		// Empty segments are real segments, matching the Split semantics.
		{"Home//Font", []string{"Home", "Font"}, 2.0 / 3},
	}
	for _, tc := range cases {
		if got := ancestorOverlap(tc.path, tc.b); got != tc.want {
			t.Errorf("ancestorOverlap(%q, %v) = %v, want %v", tc.path, tc.b, got, tc.want)
		}
	}
}

// TestGIDCutMatchesSplit: the allocation-free uia.SplitControlID the session
// uses to read step ids must agree with the straightforward SplitN/Split
// parsing of the "primary|type|anc/anc" grammar.
func TestGIDCutMatchesSplit(t *testing.T) {
	for _, gid := range []string{
		"btnSave|Button|Home/Font",
		"btnSave|Button|",
		"btnSave|Button",
		"btnSave",
		"",
		"a|b|c|d", // extra separators stay in the ancestor path
	} {
		parts := strings.SplitN(gid, "|", 3)
		for len(parts) < 3 {
			parts = append(parts, "")
		}
		primary, ctype := parts[0], parts[1]
		var ancestors []string
		if parts[2] != "" {
			ancestors = strings.Split(parts[2], "/")
		}
		p2, c2, path := uia.SplitControlID(gid)
		if p2 != primary || c2 != ctype {
			t.Errorf("SplitControlID(%q) = (%q, %q), SplitN says (%q, %q)", gid, p2, c2, primary, ctype)
		}
		if joined := strings.Join(ancestors, "/"); path != joined {
			t.Errorf("SplitControlID(%q) ancestor path %q, Split components join to %q", gid, path, joined)
		}
	}
}

// TestVisitAllocsBounded pins the steady-state allocation budget of one
// executed access command plus one prompt costing. The bound is deliberately
// loose (~2× measured) — it exists to catch a reintroduced per-round map or
// per-call serialization, not to fight the compiler over single allocations.
func TestVisitAllocsBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	app := newTestApp().App
	s, m := modelOf(t, app, Options{})
	id := leafID(t, m, "Bold")
	cmds := []Command{Access(id)}
	// Warm the scratch buffers before measuring.
	if res := s.Visit(cmds); !res.OK() {
		t.Fatal(res.Err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if res := s.Visit(cmds); !res.OK() {
			t.Fatal(res.Err)
		}
		if n, _ := s.PromptStats(24); n == 0 {
			t.Fatal("empty screen")
		}
	})
	const budget = 120
	if allocs > budget {
		t.Errorf("visit + prompt costing allocates %.0f objects/op, budget %d — a hot-path allocation crept back in", allocs, budget)
	}
}

// TestPromptCostingAllocs gates the audit: each half of the audited
// per-call costing path must allocate less than the pre-audit half it
// replaced. The screen half is the one-pass PromptStats against a label
// capture plus its passive payload (measured 11 vs 12 objects per call);
// the topology half is the memoized Model.Core against a live Serialize
// (0 vs 13). Per-half bounds imply the whole-call one (11 vs 25), and
// unlike it they catch a screen half that falls back to the label capture,
// which the topology half's margin would otherwise hide. Neither half goes
// through a sync.Pool, so the counts are exact under the race detector too.
func TestPromptCostingAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement")
	}
	s, m := benchSession(t)
	halves := []struct {
		name           string
		audited, naive func()
	}{
		{"screen", func() { auditedScreen(t, s) }, func() { naiveScreen(t, s) }},
		{"topology", func() { _ = s.Model.Core() }, func() { _ = m.Serialize(describe.CoreOptions()) }},
	}
	for _, h := range halves {
		audited, naive := testing.AllocsPerRun(50, h.audited), testing.AllocsPerRun(50, h.naive)
		if audited >= naive {
			t.Errorf("%s: audited prompt costing allocates %.0f objects/op, naive %.0f — the audit no longer pays", h.name, audited, naive)
		}
	}
}

// auditedScreen is the audited screen half: the one-pass PromptStats.
func auditedScreen(tb testing.TB, s *Session) {
	if n, _ := s.PromptStats(24); n == 0 {
		tb.Fatal("empty screen")
	}
}

// naiveScreen is its pre-audit equivalent: a full label capture and the
// passive payload off it.
func naiveScreen(tb testing.TB, s *Session) {
	lm := s.CaptureLabels()
	if lm.Len() == 0 {
		tb.Fatal("empty screen")
	}
	_ = s.PassiveTexts(lm, 24)
}

// BenchmarkSession_PromptCosting measures the audited per-call costing path
// (one-pass PromptStats + memoized core topology).
func BenchmarkSession_PromptCosting(b *testing.B) {
	s, _ := benchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		auditedScreen(b, s)
		_ = s.Model.Core()
	}
}

// BenchmarkSession_PromptCostingNaive is the pre-audit equivalent: a full
// label capture, the passive payload off it, and a live topology
// serialization per call.
func BenchmarkSession_PromptCostingNaive(b *testing.B) {
	s, m := benchSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		naiveScreen(b, s)
		_ = m.Serialize(describe.CoreOptions())
	}
}

func benchSession(tb testing.TB) (*Session, *describe.Model) {
	tb.Helper()
	g, _, err := ung.Rip(buildTestApp(), ung.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	m := describe.NewModel(f)
	return NewSession(newTestApp().App, m, Options{}), m
}

// BenchmarkSession_AllocsPerOp measures one declarative access command
// executed end to end — path resolution, navigation, the deepest-visible
// match — plus the prompt costing that precedes every LLM call.
func BenchmarkSession_AllocsPerOp(b *testing.B) {
	s, m := benchSession(b)
	node := m.FindLeafByName("Bold")
	if node == nil {
		b.Fatal("Bold not in model")
	}
	cmds := []Command{Access(m.ID(node))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := s.Visit(cmds); !res.OK() {
			b.Fatal(res.Err)
		}
		if n, _ := s.PromptStats(24); n == 0 {
			b.Fatal("empty screen")
		}
	}
}
