// Package repro's root benchmark harness regenerates every table and figure
// of the paper's evaluation (run: go test -bench=. -benchmem). Each
// benchmark reports the headline numbers as custom metrics so the shape can
// be compared against the paper directly; EXPERIMENTS.md records
// paper-vs-measured for each.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"repro/dmi"
	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/llm"
	"repro/internal/modelstore"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/osworld"
	"repro/internal/taskpack"
	"repro/internal/uia"
	"repro/internal/ung"
)

var (
	modelsOnce sync.Once
	models     *agent.Models
)

func sharedModels(b *testing.B) *agent.Models {
	b.Helper()
	modelsOnce.Do(func() {
		m, err := agent.BuildModelsIn(modelstore.New(), 0)
		if err != nil {
			b.Fatal(err)
		}
		models = m
	})
	return models
}

// Table 1 -----------------------------------------------------------------------

// BenchmarkTable1_Task1_Declarative: "make the background blue on all
// slides" as one visit call.
func BenchmarkTable1_Task1_Declarative(b *testing.B) {
	m := sharedModels(b).ByApp["PowerPoint"]
	var blue *forest.Node
	for _, id := range m.Forest.SharedOrder {
		m.Forest.Shared[id].Walk(func(n *forest.Node) bool {
			if blue == nil && n.IsLeaf() && n.Name == "Blue" {
				blue = n
			}
			return true
		})
	}
	applyAll := m.FindLeafByName("Apply to All")
	refs := m.RefsTo(m.TreeOf(blue))
	var refID int
	for _, r := range refs {
		for _, anc := range r.PathFromRoot() {
			if strings.HasPrefix(anc.GID, "btnFillColor|") {
				refID = m.ID(r)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := slides.New(12)
		s := core.NewSession(app.App, m, core.Options{})
		res := s.Visit([]core.Command{
			core.AccessRef(m.ID(blue), refID),
			core.Access(m.ID(applyAll)),
		})
		if !res.OK() || !app.Deck.AllBackgrounds("Blue") {
			b.Fatal("task failed")
		}
	}
}

// BenchmarkTable1_Task2_StateDeclaration: one scrollbar declaration
// (v = 80%) replaces the drag loop.
func BenchmarkTable1_Task2_StateDeclaration(b *testing.B) {
	m := sharedModels(b).ByApp["PowerPoint"]
	for i := 0; i < b.N; i++ {
		app := slides.New(12)
		s := core.NewSession(app.App, m, core.Options{})
		lm := s.CaptureLabels()
		label := lm.Find("Slides Vertical Scroll Bar", uia.ScrollBarControl)
		decl := core.Declaration{Op: core.OpScrollbar, Labels: []string{label}, H: uia.NoScroll, V: 80}
		if serr := s.Declare(lm, decl); serr != nil {
			b.Fatal(serr)
		}
	}
}

// Table 3 / Figure 5a ------------------------------------------------------------

func benchSetting(b *testing.B, set bench.Setting, paperSR float64) {
	m := sharedModels(b)
	var row bench.Row
	for i := 0; i < b.N; i++ {
		row = bench.RunSetting(m, set, 3)
	}
	b.ReportMetric(100*row.SR, "SR%")
	b.ReportMetric(row.Steps, "steps")
	b.ReportMetric(row.TimeS, "task-sec")
	b.ReportMetric(paperSR, "paperSR%")
}

func BenchmarkTable3_GUIOnly_GPT5Medium(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI-only / GPT-5 / Medium",
		Interface: agent.GUIOnly, Profile: llm.GPT5Medium}, 44.4)
}

func BenchmarkTable3_Ablation_GPT5Medium(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI-only+forest / GPT-5 / Medium",
		Interface: agent.GUIForest, Profile: llm.GPT5Medium}, 42.0)
}

func BenchmarkTable3_GUIDMI_GPT5Medium(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI+DMI / GPT-5 / Medium",
		Interface: agent.GUIDMI, Profile: llm.GPT5Medium}, 74.1)
}

func BenchmarkTable3_GUIOnly_GPT5Minimal(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI-only / GPT-5 / Minimal",
		Interface: agent.GUIOnly, Profile: llm.GPT5Minimal}, 23.5)
}

func BenchmarkTable3_GUIDMI_GPT5Minimal(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI+DMI / GPT-5 / Minimal",
		Interface: agent.GUIDMI, Profile: llm.GPT5Minimal}, 40.7)
}

func BenchmarkTable3_GUIOnly_GPT5Mini(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI-only / 5-mini / Medium",
		Interface: agent.GUIOnly, Profile: llm.GPT5Mini}, 17.3)
}

func BenchmarkTable3_Ablation_GPT5Mini(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI-only+forest / 5-mini / Medium",
		Interface: agent.GUIForest, Profile: llm.GPT5Mini}, 23.5)
}

func BenchmarkTable3_GUIDMI_GPT5Mini(b *testing.B) {
	benchSetting(b, bench.Setting{Label: "GUI+DMI / 5-mini / Medium",
		Interface: agent.GUIDMI, Profile: llm.GPT5Mini}, 43.2)
}

// Figure 5b ----------------------------------------------------------------------

func BenchmarkFig5b_NormalizedCoreSteps(b *testing.B) {
	m := sharedModels(b)
	var norm []float64
	for i := 0; i < b.N; i++ {
		rep := &bench.Report{Runs: 3}
		var rows []bench.Row
		for _, set := range []bench.Setting{
			{Label: "GUI-only / GPT-5 / Medium", Interface: agent.GUIOnly, Profile: llm.GPT5Medium},
			{Label: "GUI-only+forest / GPT-5 / Medium", Interface: agent.GUIForest, Profile: llm.GPT5Medium},
			{Label: "GUI+DMI / GPT-5 / Medium", Interface: agent.GUIDMI, Profile: llm.GPT5Medium},
		} {
			rows = append(rows, bench.RunSetting(m, set, 3))
		}
		norm = rep.NormalizedCoreSteps(rows)
	}
	b.ReportMetric(norm[0], "gui-core-steps")
	b.ReportMetric(norm[1], "ablation-core-steps")
	b.ReportMetric(norm[2], "dmi-core-steps")
	b.ReportMetric(1.60, "paper-dmi-core-steps")
}

// Figure 6 -----------------------------------------------------------------------

func BenchmarkFig6_FailureDistribution(b *testing.B) {
	m := sharedModels(b)
	var dmiPolicy, guiMech float64
	for i := 0; i < b.N; i++ {
		dmiRow := bench.RunSetting(m, bench.Setting{Label: "GUI+DMI / GPT-5 / Medium",
			Interface: agent.GUIDMI, Profile: llm.GPT5Medium}, 3)
		guiRow := bench.RunSetting(m, bench.Setting{Label: "GUI-only / GPT-5 / Medium",
			Interface: agent.GUIOnly, Profile: llm.GPT5Medium}, 3)
		d := bench.Failures(dmiRow)
		g := bench.Failures(guiRow)
		if d.Total > 0 {
			dmiPolicy = 100 * float64(d.Policy) / float64(d.Total)
		}
		if g.Total > 0 {
			guiMech = 100 * float64(g.Mechanism) / float64(g.Total)
		}
	}
	b.ReportMetric(dmiPolicy, "dmi-policy%")
	b.ReportMetric(guiMech, "gui-mechanism%")
	b.ReportMetric(81.0, "paper-dmi-policy%")
	b.ReportMetric(53.3, "paper-gui-mechanism%")
}

// §5.2 offline modeling -----------------------------------------------------------

func benchRip(b *testing.B, build func() *dmi.App) {
	var g *ung.Graph
	var st ung.Stats
	var err error
	for i := 0; i < b.N; i++ {
		g, st, err = ung.Rip(build(), ung.Config{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NodeCount()), "nodes")
	b.ReportMetric(float64(g.EdgeCount()), "edges")
	b.ReportMetric(st.SimulatedTime.Hours(), "simulated-hours")
}

func BenchmarkOffline_RipWord(b *testing.B) {
	benchRip(b, func() *dmi.App { return word.New().App })
}

func BenchmarkOffline_RipExcel(b *testing.B) {
	benchRip(b, func() *dmi.App { return excel.New().App })
}

func BenchmarkOffline_RipPowerPoint(b *testing.B) {
	benchRip(b, func() *dmi.App { return slides.New(12).App })
}

// benchRipParallel is benchRip over the worker-pool ripper: byte-identical
// graph, wall-clock divided across the pool (compare the ns/op of the
// matching sequential benchmark above).
func benchRipParallel(b *testing.B, workers int, build func() *dmi.App) {
	var g *ung.Graph
	var st ung.Stats
	var err error
	for i := 0; i < b.N; i++ {
		g, st, err = ung.RipParallel(build, ung.Config{}, workers)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(g.NodeCount()), "nodes")
	b.ReportMetric(float64(g.EdgeCount()), "edges")
	b.ReportMetric(float64(st.Workers), "workers")
	b.ReportMetric(st.SimulatedTime.Hours(), "simulated-hours")
}

func BenchmarkOffline_RipWordParallel4(b *testing.B) {
	benchRipParallel(b, 4, func() *dmi.App { return word.New().App })
}

func BenchmarkOffline_RipExcelParallel4(b *testing.B) {
	benchRipParallel(b, 4, func() *dmi.App { return excel.New().App })
}

func BenchmarkOffline_RipPowerPointParallel4(b *testing.B) {
	benchRipParallel(b, 4, func() *dmi.App { return slides.New(12).App })
}

// BenchmarkOffline_CatalogCold is a cold build of the five-app catalog in a
// fresh store — rip, forest transform, describe — at one worker (the
// sequential rip) and at two: modeling wall-clock per catalog, the
// end-to-end figure every rip optimisation answers to.
func BenchmarkOffline_CatalogCold(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := agent.BuildModelsIn(modelstore.New(), workers); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkOffline_ModelStoreWarm measures the marginal modeling cost of a
// session once the store is warm: near-zero, the scaling property the
// modelstore subsystem exists for.
func BenchmarkOffline_ModelStoreWarm(b *testing.B) {
	store := modelstore.New()
	factory := func() *appkit.App { return word.New().App }
	if _, err := store.Build("Word", factory, modelstore.Options{Workers: 4}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.Build("Word", factory, modelstore.Options{Workers: 4}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOffline_SnapshotRestart measures a five-app catalog restart from
// a snapshot directory: read, decode, forest transform, describe and token
// count per app, zero rip clicks.
func BenchmarkOffline_SnapshotRestart(b *testing.B) {
	dir := b.TempDir()
	if _, err := agent.BuildModelsIn(modelstore.NewPersistent(dir), 0); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		store := modelstore.NewPersistent(dir)
		if _, err := agent.BuildModelsIn(store, 0); err != nil {
			b.Fatal(err)
		}
		if st := store.Stats(); st.SnapshotLoads != int64(len(agent.AppNames())) {
			b.Fatalf("restart loaded %d snapshots, want %d", st.SnapshotLoads, len(agent.AppNames()))
		}
	}
}

// Figure 4 -----------------------------------------------------------------------

// BenchmarkFig4_TopologyTransform transforms a merge-heavy diamond-chain
// graph: the naive full clone grows exponentially while the forest stays
// linear.
func BenchmarkFig4_TopologyTransform(b *testing.B) {
	g := diamondChain(40)
	var st forest.Stats
	for i := 0; i < b.N; i++ {
		var err error
		_, st, err = forest.Transform(g, forest.Options{CloneThreshold: 8})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.GraphNodes), "graph-nodes")
	b.ReportMetric(float64(st.NaiveTreeNodes), "naive-tree-nodes")
	b.ReportMetric(float64(st.ForestNodes), "forest-nodes")
}

// §5.4 token cost -----------------------------------------------------------------

func BenchmarkTokenCost_CoreTopologies(b *testing.B) {
	m := sharedModels(b)
	var excelTok, wordTok, pptTok int
	for i := 0; i < b.N; i++ {
		excelTok = describe.Tokens(m.ByApp["Excel"].Serialize(describe.CoreOptions()))
		wordTok = describe.Tokens(m.ByApp["Word"].Serialize(describe.CoreOptions()))
		pptTok = describe.Tokens(m.ByApp["PowerPoint"].Serialize(describe.CoreOptions()))
	}
	b.ReportMetric(float64(excelTok), "excel-tokens")
	b.ReportMetric(float64(wordTok), "word-tokens")
	b.ReportMetric(float64(pptTok), "ppt-tokens")
}

// Design-choice ablations (DESIGN.md §5) -------------------------------------------

// BenchmarkAblation_CloneThreshold sweeps the externalization threshold:
// forest size versus the entry-reference indirections the LLM must supply.
func BenchmarkAblation_CloneThreshold(b *testing.B) {
	g := diamondChain(24)
	for _, th := range []int{1, 8, 64, 512} {
		th := th
		b.Run(fmt.Sprintf("threshold=%d", th), func(b *testing.B) {
			var st forest.Stats
			for i := 0; i < b.N; i++ {
				var err error
				_, st, err = forest.Transform(g, forest.Options{CloneThreshold: th})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(st.ForestNodes), "forest-nodes")
			b.ReportMetric(float64(st.SharedSubtrees), "shared-subtrees")
		})
	}
}

// BenchmarkAblation_CoreDepth sweeps the core-topology depth limit: token
// cost against coverage (controls that would need further_query).
func BenchmarkAblation_CoreDepth(b *testing.B) {
	m := sharedModels(b).ByApp["Word"]
	for _, depth := range []int{5, 7, 9, 12} {
		depth := depth
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			var tokens, controls int
			for i := 0; i < b.N; i++ {
				text := m.Serialize(describe.Options{MaxDepth: depth, DescLimit: 60})
				tokens = describe.Tokens(text)
				controls = describe.ControlsIn(text)
			}
			b.ReportMetric(float64(tokens), "tokens")
			b.ReportMetric(float64(controls), "controls")
		})
	}
}

// BenchmarkAblation_LeafFilter measures the non-leaf filter (§3.4): noisy
// LLM output that includes navigation nodes, executed with and without
// filtering.
func BenchmarkAblation_LeafFilter(b *testing.B) {
	m := sharedModels(b).ByApp["Word"]
	landscape := m.FindLeafByName("Landscape")
	opener := landscape.Parent // navigation node the noisy LLM also emits
	for _, filter := range []bool{true, false} {
		filter := filter
		b.Run(fmt.Sprintf("filter=%v", filter), func(b *testing.B) {
			ok := 0
			for i := 0; i < b.N; i++ {
				app := word.New()
				s := core.NewSession(app.App, m, core.Options{DisableLeafFilter: !filter})
				res := s.Visit([]core.Command{
					core.Access(m.ID(opener)), // navigation noise
					core.Shortcut("ENTER"),    // trailing shortcut noise
					core.Access(m.ID(landscape)),
				})
				if res.OK() && app.Doc.Orientation == "Landscape" {
					ok++
				}
			}
			b.ReportMetric(100*float64(ok)/float64(b.N), "success%")
		})
	}
}

// BenchmarkAblation_Robustness measures fuzzy matching + retries under
// injected instability (renames and slow loading).
func BenchmarkAblation_Robustness(b *testing.B) {
	m := sharedModels(b).ByApp["Word"]
	landscape := m.FindLeafByName("Landscape")
	for _, robust := range []bool{true, false} {
		robust := robust
		b.Run(fmt.Sprintf("robust=%v", robust), func(b *testing.B) {
			rng := rand.New(rand.NewSource(42))
			ok := 0
			for i := 0; i < b.N; i++ {
				app := word.New()
				// Inject instability: mild rename + lazy-loading menu
				// item (it lives in the Orientation popup).
				var live *uia.Element
				for _, w := range app.AllPopupWindows() {
					if live = w.Find(func(e *uia.Element) bool {
						return e.Name() == "Landscape"
					}); live != nil {
						break
					}
				}
				if live == nil {
					b.Fatal("Landscape not found in popups")
				}
				live.SetName("Landscape.")
				live.DeferVisibility(1 + rng.Intn(2))
				opt := core.Options{}
				if !robust {
					opt = core.Options{DisableFuzzy: true, DisableRetry: true, Retries: 1}
				}
				s := core.NewSession(app.App, m, opt)
				res := s.Visit([]core.Command{core.Access(m.ID(landscape))})
				if res.OK() && app.Doc.Orientation == "Landscape" {
					ok++
				}
			}
			b.ReportMetric(100*float64(ok)/float64(b.N), "success%")
		})
	}
}

// BenchmarkOnline_ParallelSessions measures the concurrent serving layer:
// the whole evaluation grid (8 settings × 39 tasks × 1 run = 312 sessions)
// served by RunDispatchedIn over a LocalDispatcher on the shared warm
// models, at increasing cell concurrency. sessions/sec is wall-clock
// throughput; the report stays byte-identical to the sequential run
// (asserted separately under -race), so the only thing concurrency changes
// is how fast the grid drains — and how often a session finds its app's
// pooled instance lent to another one: reused% is the share of sessions
// that ran on the pooled instance rather than a fresh build.
func BenchmarkOnline_ParallelSessions(b *testing.B) {
	m := sharedModels(b)
	reg := taskpack.Builtin()
	d := bench.NewLocalDispatcherIn(reg, m, 1)
	for _, concurrency := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("concurrency=%d", concurrency), func(b *testing.B) {
			sessions := 0
			reused0, built0 := osworld.PoolStats()
			for i := 0; i < b.N; i++ {
				rep, err := bench.RunDispatchedIn(context.Background(), reg, d, 1, concurrency)
				if err != nil {
					b.Fatal(err)
				}
				for _, row := range rep.Rows {
					sessions += row.Total
				}
			}
			b.ReportMetric(float64(sessions)/b.Elapsed().Seconds(), "sessions/sec")
			reused, built := osworld.PoolStats()
			reused, built = reused-reused0, built-built0
			b.ReportMetric(100*float64(reused)/float64(reused+built), "reused%")
		})
	}
}

// BenchmarkOnline_VisitPathResolution isolates the executor's hot path.
func BenchmarkOnline_VisitPathResolution(b *testing.B) {
	m := sharedModels(b).ByApp["Word"]
	landscape := m.FindLeafByName("Landscape")
	app := word.New()
	s := core.NewSession(app.App, m, core.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := s.Visit([]core.Command{core.Access(m.ID(landscape))})
		if !res.OK() {
			b.Fatal(res.Err)
		}
	}
}

// diamondChain builds the Figure 4 synthetic: a chain of diamonds whose
// naive clone doubles per level.
func diamondChain(levels int) *ung.Graph {
	g := ung.NewGraph("diamond")
	add := func(id string) int32 {
		i, _ := g.AddNode(ung.Reveal{ID: id, Name: id, Type: uia.ButtonControl}, "")
		return i
	}
	var prev int32 // the root
	for i := 0; i < levels; i++ {
		l := add(fmt.Sprintf("l%d", i))
		r := add(fmt.Sprintf("r%d", i))
		mnode := add(fmt.Sprintf("m%d", i))
		g.AddEdge(prev, l)
		g.AddEdge(prev, r)
		g.AddEdge(l, mnode)
		g.AddEdge(r, mnode)
		prev = mnode
	}
	return g
}
