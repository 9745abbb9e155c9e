package agent

import (
	"crypto/sha256"
	"encoding/hex"
	"runtime"
	"testing"

	"repro/internal/forest"
	"repro/internal/modelstore"
)

// catalogModelGolden pins what the offline pipeline makes of each catalog
// app's graph: the forest transform's Stats, the core topology's token cost,
// and sha256 digests of the core and full renderings. Rewrites of the
// transform, describe or the snapshot codec must leave every figure
// unchanged. A restart reads the stats, the token count and the core
// rendering back from the snapshot's model section, so a change to any
// figure also needs a modelstore.SnapshotVersion bump: without one, a
// restart from an older snapshot serves the old figures.
var catalogModelGolden = map[string]struct {
	stats      forest.Stats
	coreTokens int
	core, full string
}{
	"Word": {forest.Stats{GraphNodes: 3798, GraphEdges: 3808, BackEdgesRemoved: 1, MergeNodes: 4, Externalized: 2, Cloned: 2, ForestNodes: 3867, SharedSubtrees: 2, MainTreeNodes: 3348, NaiveTreeNodes: 5054}, 14481,
		"10031387539548070cff86a3a6c8db084cbfb2373be9120031d6d682911cb759", "af6aa9fb600396d93290aeaa66d71cb6896911e14dd979ea152cf3d4cc6a93ba"},
	"Excel": {forest.Stats{GraphNodes: 3681, GraphEdges: 3698, BackEdgesRemoved: 1, MergeNodes: 4, Externalized: 2, Cloned: 2, ForestNodes: 3726, SharedSubtrees: 2, MainTreeNodes: 3603, NaiveTreeNodes: 4420}, 14777,
		"e06e6bf8a4165ae3413c0a36edcf52bdee6a51696dd5f397f78335fedd19ffec", "6a4a60562f9840b7cda351b9b8e10571b0ae4f5ec8501cf3ca941427f03cc1b9"},
	"PowerPoint": {forest.Stats{GraphNodes: 3475, GraphEdges: 3482, BackEdgesRemoved: 1, MergeNodes: 3, Externalized: 1, Cloned: 2, ForestNodes: 3523, SharedSubtrees: 1, MainTreeNodes: 3438, NaiveTreeNodes: 3942}, 11231,
		"e289fdb567a8ddc0e0b68e662207e05d0646e62aa76586fcc9e213df52a9e405", "ce220400ebb274951b5c11772c644aa047d4e65bb5eedf1a83474ce517212fe1"},
	"Settings": {forest.Stats{GraphNodes: 558, GraphEdges: 558, BackEdgesRemoved: 0, MergeNodes: 1, Externalized: 1, Cloned: 0, ForestNodes: 560, SharedSubtrees: 1, MainTreeNodes: 475, NaiveTreeNodes: 643}, 5813,
		"7f0afa684ee54ba0af95d23dd53bb2d0b8e7808eb1b1c606964136b2e0dc9dfe", "d5b4351816057cb56ddd7e0bf3964b1b5d7ec2123f78ee6b7c243f0b7f3adc83"},
	"Files": {forest.Stats{GraphNodes: 297, GraphEdges: 348, BackEdgesRemoved: 0, MergeNodes: 7, Externalized: 1, Cloned: 6, ForestNodes: 378, SharedSubtrees: 1, MainTreeNodes: 337, NaiveTreeNodes: 2217}, 5069,
		"fb5dfb0624cc7898b1c73e68200c05df79afc3f147d8dbbde9f2e227f1093697", "739ad5c4363325b12c12ba8da18bda0005b6b5b00768e2fc06c79b0349ae8dc1"},
}

// TestCatalogModelGolden checks the golden figures on a cold build and on a
// restart from the cold build's snapshots, so the snapshot decoders are
// held to them too: the restart's stats, tokens and core come from the
// model section, and its full rendering from the forest decoded there.
func TestCatalogModelGolden(t *testing.T) {
	dir := t.TempDir()
	for _, restart := range []bool{false, true} {
		store := modelstore.NewPersistent(dir)
		for _, app := range AppNames() {
			b, err := store.Build(app, Factories()[app], modelstore.Options{Workers: 2})
			if err != nil {
				t.Fatal(err)
			}
			if b.FromSnapshot != restart {
				t.Fatalf("%s: FromSnapshot = %v, want %v", app, b.FromSnapshot, restart)
			}
			want := catalogModelGolden[app]
			if b.TransformStats != want.stats {
				t.Errorf("%s (restart %v): forest stats = %#v, want %#v", app, restart, b.TransformStats, want.stats)
			}
			if b.CoreTokens != want.coreTokens {
				t.Errorf("%s (restart %v): core tokens = %d, want %d", app, restart, b.CoreTokens, want.coreTokens)
			}
			if got := digest(b.Model.Core()); got != want.core {
				t.Errorf("%s (restart %v): Core() digest = %s, want %s", app, restart, got, want.core)
			}
			if got := digest(b.Model.Full()); got != want.full {
				t.Errorf("%s (restart %v): Full() digest = %s, want %s", app, restart, got, want.full)
			}
		}
	}
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// snapshotRestartAllocBudget and snapshotRestartByteBudget bound one
// catalog restart from snapshots: read, decode the graph, and decode the
// model (the forest from its shape, the stored core rendering and token
// count) for all five apps. Both figures are deterministic up to a few
// allocations, so they gate the restart path's footprint where wall-clock
// cannot. A restart makes about 267 allocations of 3.71 MB in total
// (go1.24); while each graph node carried two edge-list headers (128
// bytes a node, 80 now), about 277 of 4.2 MB; while it ran the transform, rendered
// the core and counted its tokens again, about 351 of 5.1 MB; while every
// model rendered its full topology at construction and each snapshot read
// went through io.Copy's 32 KB buffer, about 397 of 6.0 MB; while it read
// each snapshot into a byte slice that the decoder copied again, the
// decoded graph kept an id map and each forest node copied its graph
// node's fields, about 420 of 8.27 MB; with an id-keyed graph that the
// decoder and the transform each re-indexed, about 505 of 10.2 MB; and
// before the decoder checked the graph on edge indexes, describe rendered
// into one presized buffer and model ids came from forest positions
// instead of a pointer-keyed map, 1.3k of 13.6 MB. Tighten the budgets
// when the path gets leaner; never loosen them.
const (
	snapshotRestartAllocBudget = 275
	snapshotRestartByteBudget  = 3_900_000
)

// raceEnabled is set in race builds (race_test.go), where the budgets are
// not checked.
var raceEnabled bool

func TestSnapshotRestartAllocs(t *testing.T) {
	dir := t.TempDir()
	if _, err := BuildModelsIn(modelstore.NewPersistent(dir), 2); err != nil {
		t.Fatal(err)
	}
	restart := func() {
		store := modelstore.NewPersistent(dir)
		if _, err := BuildModelsIn(store, 2); err != nil {
			t.Fatal(err)
		}
		if st := store.Stats(); st.SnapshotLoads != int64(len(AppNames())) {
			t.Fatalf("restart loaded %d snapshots, want %d", st.SnapshotLoads, len(AppNames()))
		}
	}
	allocs := testing.AllocsPerRun(3, restart)
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		restart()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("catalog restart from snapshots: %.0f allocs, %d bytes", allocs, bytes)
	if raceEnabled {
		return
	}
	if allocs > snapshotRestartAllocBudget {
		t.Errorf("catalog restart allocates %.0f times, budget %d", allocs, snapshotRestartAllocBudget)
	}
	if bytes > snapshotRestartByteBudget {
		t.Errorf("catalog restart allocates %d bytes, budget %d", bytes, snapshotRestartByteBudget)
	}
}

// catalogColdAllocBudget and catalogColdByteBudget bound one cold catalog
// build in a fresh store: rip, forest transform, describe and token count
// for all five apps. A cold build allocates about 100.5k times and 16.8 MB
// in total (go1.24); while the rip grew two edge lists per node and kept
// its id index in a map, 114.4k times and 17.6 MB; while an in-memory
// store encoded every graph only to learn its size, 18.9 MB; while every
// model rendered its full topology at construction, 19.5 MB; while each
// forest node copied its graph node's fields and the ripped graph kept its
// id map, 20.3 MB; and while each rip checkpoint copied the windows a
// click left unchanged and the graph grew its nodes by append, 115.6k
// times and 24.0 MB. Tighten the budgets when the path gets leaner; never
// loosen them.
const (
	catalogColdAllocBudget = 102_000
	catalogColdByteBudget  = 17_100_000
)

func TestCatalogColdAllocs(t *testing.T) {
	build := func() {
		if _, err := BuildModelsIn(modelstore.New(), 1); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(2, build)
	const runs = 3
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		build()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("cold catalog build: %.0f allocs, %d bytes", allocs, bytes)
	if raceEnabled {
		return
	}
	if allocs > catalogColdAllocBudget {
		t.Errorf("cold catalog build allocates %.0f times, budget %d", allocs, catalogColdAllocBudget)
	}
	if bytes > catalogColdByteBudget {
		t.Errorf("cold catalog build allocates %d bytes, budget %d", bytes, catalogColdByteBudget)
	}
}

// modelsForWarmAllocBudget bounds a warm ModelsFor, the serving daemon's
// per-session model fetch: the store's fingerprint, and the one-app view
// with its two maps, 10 allocations (go1.24). It made 12 while it built the
// five-entry Factories map to read one builder. Tighten it when the fetch
// gets leaner; never loosen it.
const modelsForWarmAllocBudget = 10

func TestModelsForWarmAllocs(t *testing.T) {
	store := modelstore.New()
	if _, err := ModelsFor(store, "Files", 1); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ModelsFor(store, "Files", 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm ModelsFor: %.0f allocs", allocs)
	if allocs > modelsForWarmAllocBudget && !raceEnabled {
		t.Errorf("a warm ModelsFor allocates %.0f times, budget %d", allocs, modelsForWarmAllocBudget)
	}
}

// catalogResidentByteBudget bounds the live heap a serving replica keeps
// for the catalog: the five models a fresh in-memory store builds, with
// the store that holds them and the name index every session resolves
// through. The catalog holds about 3.6 MB (go1.24); 5.2 MB while each
// graph node carried two edge-list headers and the name index was a map
// from key to id slice. Tighten it when models get smaller; never loosen
// it.
const catalogResidentByteBudget = 3_700_000

func TestCatalogResidentBytes(t *testing.T) {
	if raceEnabled {
		t.Skip("heap figures differ under the race detector")
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	store := modelstore.New()
	models, err := BuildModelsIn(store, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range AppNames() {
		models.ByApp[app].IDsNamed("")
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(store)
	runtime.KeepAlive(models)
	bytes := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("catalog resident: %d bytes", bytes)
	if bytes > catalogResidentByteBudget {
		t.Errorf("the catalog keeps %d bytes resident, budget %d", bytes, catalogResidentByteBudget)
	}
}
