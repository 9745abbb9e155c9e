package describe

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/forest"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/uia"
	"repro/internal/ung"
)

// catalogApps lists the five evaluated applications (the agent.Factories
// set, which this package cannot import), in agent.AppNames order.
var catalogApps = []struct {
	name string
	new  func() *appkit.App
}{
	{"Word", func() *appkit.App { return word.New().App }},
	{"Excel", func() *appkit.App { return excel.New().App }},
	{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
	{"Settings", func() *appkit.App { return settings.New().App }},
	{"Files", func() *appkit.App { return filemgr.New().App }},
}

// ripForest rips an application and transforms its graph.
func ripForest(t *testing.T, app *appkit.App) *forest.Forest {
	t.Helper()
	g, _, err := ung.Rip(app, ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, _, err := forest.Transform(g, forest.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestCatalogRenderingsMatchSerialize: the memoized core and the full
// rendering rendered on first use are the Serialize renderings, for every
// catalog model.
func TestCatalogRenderingsMatchSerialize(t *testing.T) {
	for _, app := range catalogApps {
		m := NewModel(ripForest(t, app.new()))
		if m.Core() != m.Serialize(CoreOptions()) {
			t.Errorf("%s: Core() differs from Serialize(CoreOptions())", app.name)
		}
		if m.Full() != m.Serialize(FullOptions()) {
			t.Errorf("%s: Full() differs from Serialize(FullOptions())", app.name)
		}
	}
}

// TestFullConcurrentFirstUse: sessions share a model, so the first Full
// calls may come from many goroutines at once; each gets the one
// rendering. Run under -race it also checks the memo is published safely.
func TestFullConcurrentFirstUse(t *testing.T) {
	f := ripForest(t, filemgr.New().App)
	want := NewModel(f).Serialize(FullOptions())
	m := NewModel(f)
	got := make([]string, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = m.Full()
		}()
	}
	wg.Wait()
	for i, s := range got {
		if s != want {
			t.Errorf("goroutine %d: Full() returned %d bytes, not the %d-byte rendering", i, len(s), len(want))
		}
	}
}

// newModelByteBudget bounds the bytes NewModel allocates for Word's
// forest: the id table, the shared-subtree tables, the core's scratch
// buffer and the core string, about 124 KB (go1.24). Rendering the full
// topology at construction as well allocated about 360 KB, so a build that
// renders more than the core fails here.
const newModelByteBudget = 200_000

func TestNewModelBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation figures differ under the race detector")
	}
	f := ripForest(t, word.New().App)
	NewModel(f) // number the forest, so every run below only reads it
	const runs = 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		NewModel(f)
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("NewModel(Word): %d bytes", bytes)
	if bytes > newModelByteBudget {
		t.Errorf("NewModel(Word) allocates %d bytes, budget %d", bytes, newModelByteBudget)
	}
}

// TestAppendEscapedMatchesReplacer: the table scan escapes exactly what a
// strings.Replacer over the structural characters does, on every single
// byte and on random strings mixing ASCII, structural characters and
// multi-byte UTF-8 (whose bytes are all at least 0x80).
func TestAppendEscapedMatchesReplacer(t *testing.T) {
	var pairs []string
	for i := range len(structural) {
		pairs = append(pairs, structural[i:i+1], escapes[structural[i]])
	}
	ref := strings.NewReplacer(pairs...)
	check := func(s string) {
		t.Helper()
		if got, want := string(appendEscaped([]byte("pre"), s)), "pre"+ref.Replace(s); got != want {
			t.Fatalf("appendEscaped(%q) = %q, want %q", s, got, want)
		}
	}
	for c := range 256 {
		check(string([]byte{byte(c)}))
	}
	pieces := []string{"(", ")", "[", "]", ",", "_", "a", "Z", " ", "-", ";", "é", "⟨", "⟧", "中", "😀", "\x00", "\xff"}
	rng := rand.New(rand.NewSource(1))
	for range 2000 {
		var b strings.Builder
		for range rng.Intn(24) {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		check(b.String())
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestIDsNamedMatchesMap: on every catalog model the name index returns,
// for every primary id and every name, exactly the ids a map from key to
// id list gives, in id order and capped at their length, and nothing for
// keys no node carries.
func TestIDsNamedMatchesMap(t *testing.T) {
	for _, app := range catalogApps {
		m := NewModel(ripForest(t, app.new()))
		want := make(map[string][]int32)
		for i, n := range m.byID {
			p, _, _ := uia.SplitControlID(n.ID)
			want[p] = append(want[p], int32(i))
			if n.Name != p {
				want[n.Name] = append(want[n.Name], int32(i))
			}
		}
		for key, ids := range want {
			got := m.IDsNamed(key)
			if !slices.Equal(got, ids) {
				t.Fatalf("%s: IDsNamed(%q) = %v, want %v", app.name, key, got, ids)
			}
			if cap(got) != len(got) {
				t.Fatalf("%s: IDsNamed(%q) has len %d, cap %d", app.name, key, len(got), cap(got))
			}
		}
		for _, miss := range []string{"no such control", "btnBold|ButtonControl", m.byID[0].ID + "x", "\x00"} {
			if _, ok := want[miss]; ok {
				continue
			}
			if got := m.IDsNamed(miss); got != nil {
				t.Errorf("%s: IDsNamed(%q) = %v, want none", app.name, miss, got)
			}
		}
	}
}

// TestIDsNamedConcurrentFirstUse: the first IDsNamed calls may come from
// many sessions at once; each gets the one index. Run under -race it also
// checks the index is published safely.
func TestIDsNamedConcurrentFirstUse(t *testing.T) {
	f := ripForest(t, filemgr.New().App)
	ref := NewModel(f)
	keys := make([]string, 0, ref.NodeCount())
	for _, n := range ref.byID {
		keys = append(keys, n.Name)
	}
	want := make([][]int32, len(keys))
	for i, k := range keys {
		want[i] = ref.IDsNamed(k)
	}
	m := NewModel(f)
	var wg sync.WaitGroup
	errs := make([]string, 8)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range keys {
				k := (i + g*len(keys)/len(errs)) % len(keys)
				if got := m.IDsNamed(keys[k]); !slices.Equal(got, want[k]) {
					errs[g] = fmt.Sprintf("goroutine %d: IDsNamed(%q) = %v, want %v", g, keys[k], got, want[k])
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, e := range errs {
		if e != "" {
			t.Error(e)
		}
	}
}
