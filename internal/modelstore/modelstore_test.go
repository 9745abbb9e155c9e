package modelstore

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/ung"
)

// storeApp builds a small ribbon application (a trimmed variant of the ung
// package's demo app) for store tests.
func storeApp() *appkit.App {
	a := appkit.New("StoreDemo")
	picker := a.ColorPicker("clr", "Colors", func(*appkit.App, string) {})
	home := a.Tab("tabHome", "Home")
	font := home.Group("grpFont", "Font")
	font.ToggleButton("btnBold", "Bold", func(*appkit.App) bool { return false }, func(*appkit.App, bool) {})
	font.MenuButton("btnFontColor", "Font Color", picker, func(*appkit.App) any { return "font" })
	ins := a.Tab("tabInsert", "Insert")
	dlg := a.NewDialog("dlgTable", "Insert Table")
	dlg.Panel().Spinner("spnRows", "Rows", 1, 10, 2, nil)
	dlg.AddOKCancel(nil)
	ins.Group("grpTables", "Tables").DialogButton("btnTable", "Table", dlg, nil)
	a.AddRibbonCollapse()
	return a
}

func TestCacheMissThenHit(t *testing.T) {
	s := New()
	var calls atomic.Int32
	factory := func() *appkit.App {
		calls.Add(1)
		return storeApp()
	}

	b1, err := s.Build("StoreDemo", factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b1.CacheHit || b1.FromSnapshot {
		t.Fatalf("first build flagged as cached: %+v", b1)
	}
	if b1.RipStats.Clicks == 0 {
		t.Fatal("first build did not rip")
	}
	after := calls.Load()

	b2, err := s.Build("StoreDemo", factory, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !b2.CacheHit {
		t.Fatal("second build missed the cache")
	}
	if b2.Model != b1.Model {
		t.Fatal("cache returned a different model")
	}
	if calls.Load() != after {
		t.Fatalf("cache hit invoked the factory (%d → %d calls)", after, calls.Load())
	}
	if st := s.Stats(); st.ResidentModels != 1 || st.Misses != 1 {
		t.Fatalf("store holds %d models after %d misses, want 1 and 1", st.ResidentModels, st.Misses)
	}
	// Token accounting is an offline artifact too: computed at build time,
	// carried unchanged by warm hits so sessions never re-serialize.
	if b1.CoreTokens <= 0 {
		t.Fatalf("implausible token accounting: core=%d", b1.CoreTokens)
	}
	if b2.CoreTokens != b1.CoreTokens {
		t.Fatalf("warm hit changed token accounting: %+v vs %+v", b2, b1)
	}
}

func TestDifferentFingerprintsMiss(t *testing.T) {
	s := New()
	b1, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b2, err := s.Build("StoreDemo", storeApp, Options{Rip: ung.Config{MaxDepth: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Model == b2.Model {
		t.Fatal("different rip configs shared a cache slot")
	}
	// Zero config and explicit defaults normalize to the same fingerprint.
	if Fingerprint("A", Options{}) != Fingerprint("A", Options{Rip: ung.Config{MaxDepth: 10, MaxNodes: 100000}}) {
		t.Fatal("default normalization broken")
	}
	// Workers never changes the result, so it must not split the cache.
	if Fingerprint("A", Options{}) != Fingerprint("A", Options{Workers: 8}) {
		t.Fatal("workers leaked into the fingerprint")
	}
}

// TestSingleflight: N concurrent Build calls for one key trigger exactly one
// offline build, and everyone gets the same model. Run under -race.
func TestSingleflight(t *testing.T) {
	s := New()
	var builds atomic.Int32
	factory := func() *appkit.App {
		builds.Add(1)
		return storeApp()
	}

	const n = 16
	results := make([]*describe.Model, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b, err := s.Build("StoreDemo", factory, Options{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = b.Model
		}(i)
	}
	wg.Wait()

	// A rip builds one instance at any width, so one singleflighted build
	// makes exactly one factory call.
	if got := builds.Load(); got != 1 {
		t.Fatalf("factory called %d times, want 1 (one singleflighted build)", got)
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Fatalf("caller %d got a different model", i)
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()

	cold := NewPersistent(dir)
	b1, err := cold.Build("StoreDemo", storeApp, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b1.FromSnapshot {
		t.Fatal("cold build claims a snapshot")
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot not written: %v %d", err, len(files))
	}

	// A new store over the same directory rebuilds from the snapshot:
	// zero rip clicks, identical serialized topology.
	warm := NewPersistent(dir)
	var calls atomic.Int32
	b2, err := warm.Build("StoreDemo", func() *appkit.App {
		calls.Add(1)
		return storeApp()
	}, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !b2.FromSnapshot {
		t.Fatal("warm build did not use the snapshot")
	}
	if b2.RipStats.Clicks != 0 {
		t.Fatalf("warm build spent %d rip clicks, want 0", b2.RipStats.Clicks)
	}
	if calls.Load() != 0 {
		t.Fatalf("warm build invoked the factory %d times", calls.Load())
	}
	want := b1.Model.Serialize(describe.FullOptions())
	got := b2.Model.Serialize(describe.FullOptions())
	if want != got {
		t.Fatal("snapshot build serializes differently from the fresh build")
	}
	if b1.Model.NodeCount() != b2.Model.NodeCount() {
		t.Fatal("identifier assignment differs")
	}
}

// TestSnapshotSurvivesThresholdChange: the snapshot is keyed by the rip
// fingerprint, so a different externalization threshold (a different model)
// still reuses the ripped graph from disk.
func TestSnapshotSurvivesThresholdChange(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	b, err := NewPersistent(dir).Build("StoreDemo", storeApp,
		Options{Transform: forest.Options{CloneThreshold: 8}})
	if err != nil {
		t.Fatal(err)
	}
	if !b.FromSnapshot {
		t.Fatal("threshold change discarded the ripped-graph snapshot")
	}
}

func TestCorruptSnapshotRebuilds(t *testing.T) {
	dir := t.TempDir()
	s := NewPersistent(dir)
	if _, err := s.Build("StoreDemo", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if err := os.WriteFile(dir+"/"+f.Name(), []byte("corrupt"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fresh := NewPersistent(dir)
	b, err := fresh.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.FromSnapshot {
		t.Fatal("corrupt snapshot was trusted")
	}
	if b.RipStats.Clicks == 0 {
		t.Fatal("corrupt snapshot did not trigger a re-rip")
	}
}

// TestTruncatedSnapshotRewritten: a snapshot torn mid-write (here,
// truncated) is not trusted; the store re-rips and rewrites it in full, so
// the next store over the directory reloads it with zero rip clicks.
func TestTruncatedSnapshotRewritten(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 {
		t.Fatalf("want one snapshot file, have %d", len(files))
	}
	path := filepath.Join(dir, files[0].Name())
	whole, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, int64(len(whole)/2)); err != nil {
		t.Fatal(err)
	}

	b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.FromSnapshot || b.RipStats.Clicks == 0 {
		t.Fatal("truncated snapshot was trusted")
	}
	if b.SnapshotErr != nil {
		t.Fatal(b.SnapshotErr)
	}
	rewritten, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(rewritten) != string(whole) {
		t.Fatalf("rewritten snapshot differs from the original (%d vs %d bytes)", len(rewritten), len(whole))
	}
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o644 {
		t.Fatalf("snapshot mode %v (%v), want 0644", fi.Mode().Perm(), err)
	}
	if b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{}); err != nil || !b.FromSnapshot {
		t.Fatalf("rewritten snapshot did not reload: %v", err)
	}
}

// TestConcurrentStoresShareSnapshotDir: two stores (two daemons) building
// the same app into one directory at once each publish through their own
// temp file. Both builds save cleanly, no temp file is left behind, and the
// surviving snapshot reloads.
func TestConcurrentStoresShareSnapshotDir(t *testing.T) {
	for round := 0; round < 5; round++ {
		dir := t.TempDir()
		stores := [2]*Store{NewPersistent(dir), NewPersistent(dir)}
		var builds [2]Build
		var errs [2]error
		var start, done sync.WaitGroup
		start.Add(1)
		for i := range stores {
			done.Add(1)
			go func(i int) {
				defer done.Done()
				start.Wait()
				builds[i], errs[i] = stores[i].Build("StoreDemo", storeApp, Options{})
			}(i)
		}
		start.Done()
		done.Wait()
		for i := range builds {
			if errs[i] != nil || builds[i].SnapshotErr != nil {
				t.Fatalf("round %d store %d: %v / %v", round, i, errs[i], builds[i].SnapshotErr)
			}
		}
		files, _ := os.ReadDir(dir)
		if len(files) != 1 {
			names := make([]string, len(files))
			for i, f := range files {
				names[i] = f.Name()
			}
			t.Fatalf("round %d: directory holds %v, want one snapshot", round, names)
		}
		b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
		if err != nil || !b.FromSnapshot {
			t.Fatalf("round %d: shared snapshot did not reload: %v", round, err)
		}
		want := builds[0].Model.Serialize(describe.FullOptions())
		if got := b.Model.Serialize(describe.FullOptions()); got != want {
			t.Fatalf("round %d: reloaded model serializes differently", round)
		}
	}
}

// TestSnapshotWriteFailureLeavesNoTemp: when the rename cannot land (the
// final name is a directory), the write fails and its temp file is removed.
func TestSnapshotWriteFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	s := NewPersistent(dir)
	key := RipFingerprint("StoreDemo", ung.Config{})
	if err := os.MkdirAll(filepath.Join(s.snapshotPath(key), "occupied"), 0o755); err != nil {
		t.Fatal(err)
	}
	b, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotErr == nil {
		t.Fatal("rename over a directory reported no error")
	}
	files, _ := os.ReadDir(dir)
	if len(files) != 1 || !files[0].IsDir() {
		t.Fatalf("failed write left %d entries behind", len(files))
	}
}

// TestSnapshotBinaryDefault: a persistent store writes binary snapshots
// (.ungb) that open with the graph's EncodeBinary bytes, length-prefixed,
// before the model section, and the build's budget cost is that payload's
// size.
func TestSnapshotBinaryDefault(t *testing.T) {
	dir := t.TempDir()
	s := NewPersistent(dir)
	b, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("snapshot not written: %v %d", err, len(files))
	}
	if filepath.Ext(files[0].Name()) != ".ungb" {
		t.Errorf("default snapshot %q is not binary", files[0].Name())
	}
	want, err := ung.EncodeBinary(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, files[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	n, k := binary.Uvarint(data)
	if k <= 0 || n != uint64(len(want)) || !bytes.HasPrefix(data[k:], want) {
		t.Errorf("snapshot file (%d B) does not open with the graph's %d EncodeBinary bytes, length-prefixed", len(data), len(want))
	}
	if int64(len(want)) != b.SnapshotBytes {
		t.Errorf("budget cost %d does not match the graph payload %d", b.SnapshotBytes, len(want))
	}
}

// TestStrayJSONSnapshotIsAMiss: the store reads only its own .ungb files,
// so a JSON snapshot left in the directory by an older build is ignored —
// a cache miss that rips and writes the binary snapshot beside it.
func TestStrayJSONSnapshotIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s := NewPersistent(dir)
	key := RipFingerprint("StoreDemo", ung.Config{})
	data := []byte(`{"app":"StoreDemo","nodes":[{"id":"[ROOT]","type":32}]}`)
	stray := strings.TrimSuffix(s.snapshotPath(key), ".ungb") + ".json"
	if err := os.WriteFile(stray, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int32
	b, err := s.Build("StoreDemo", func() *appkit.App {
		calls.Add(1)
		return storeApp()
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.FromSnapshot || calls.Load() == 0 {
		t.Fatalf("stray JSON snapshot was loaded: %+v (%d factory calls)", b, calls.Load())
	}
	if _, err := os.Stat(s.snapshotPath(key)); err != nil {
		t.Errorf("the rebuild wrote no binary snapshot: %v", err)
	}
}

// TestSnapshotSaveFailureKeepsBuild: persistence failing must not discard a
// completed build — the model is returned and cached, with the save error
// recorded for callers that asked for persistence.
func TestSnapshotSaveFailureKeepsBuild(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(blocker, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	// dir nests under a regular file, so MkdirAll fails at save time.
	s := NewPersistent(filepath.Join(blocker, "snapshots"))
	b, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatalf("save failure propagated as build failure: %v", err)
	}
	if b.Model == nil || b.RipStats.Clicks == 0 {
		t.Fatal("build incomplete despite successful pipeline")
	}
	if b.SnapshotErr == nil {
		t.Fatal("save failure not recorded")
	}
	b2, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil || !b2.CacheHit {
		t.Fatalf("build with failed save was not cached: %v %+v", err, b2)
	}
}

func TestFailedBuildsRetry(t *testing.T) {
	s := New()
	// MaxNodes=2 forces the rip to abort.
	bad := Options{Rip: ung.Config{MaxNodes: 2}}
	if _, err := s.Build("StoreDemo", storeApp, bad); err == nil {
		t.Fatal("expected rip failure")
	}
	if st := s.Stats(); st.ResidentModels != 0 {
		t.Fatalf("failed build was cached (%d models)", st.ResidentModels)
	}
	// The slot was dropped, so a workable configuration succeeds on retry.
	b, err := s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); b.CacheHit || st.Misses != 2 {
		t.Fatalf("retry after a failed build was not a fresh build: hit=%v %+v", b.CacheHit, st)
	}
}

// Budget / LRU / Stats ------------------------------------------------------

// modelCost builds once in a throwaway store and reports one model's
// encoded-snapshot cost, so budget tests can size budgets in model units.
func modelCost(t *testing.T) int64 {
	t.Helper()
	b, err := New().Build("CostProbe", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.SnapshotBytes <= 0 {
		t.Fatalf("build reported no snapshot cost: %+v", b)
	}
	return b.SnapshotBytes
}

func TestBudgetEvictsLRU(t *testing.T) {
	cost := modelCost(t)
	dir := t.TempDir()
	// Room for exactly two models (all test apps share one structure, so
	// one cost fits all).
	s := NewBudgeted(dir, 2*cost)

	for _, app := range []string{"A", "B"} {
		if _, err := s.Build(app, storeApp, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Evictions != 0 || st.ResidentModels != 2 || st.ResidentBytes != 2*cost {
		t.Fatalf("two models should fit the budget exactly: %+v", st)
	}

	// Third model: A is the least recently used and must go.
	if _, err := s.Build("C", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	st = s.Stats()
	if st.Evictions != 1 || st.ResidentModels != 2 {
		t.Fatalf("third model should evict exactly one: %+v", st)
	}
	if st.ResidentBytes > s.Budget() {
		t.Fatalf("resident %d over budget %d", st.ResidentBytes, s.Budget())
	}
	b, err := s.Build("B", storeApp, Options{}) // B stayed warm
	if err != nil || !b.CacheHit {
		t.Fatalf("B should still be warm: %v %+v", err, b)
	}
	ba, err := s.Build("A", storeApp, Options{}) // A was evicted
	if err != nil || ba.CacheHit {
		t.Fatalf("A should have been evicted: %v %+v", err, ba)
	}
	// The eviction dropped only the memory entry: A's snapshot file is
	// still on disk, so the reload spends zero rip clicks.
	if !ba.FromSnapshot || ba.RipStats.Clicks != 0 {
		t.Fatalf("evicted model should reload from snapshot with zero rip clicks: %+v", ba)
	}
	if st := s.Stats(); st.SnapshotLoads == 0 {
		t.Fatalf("snapshot reload not counted: %+v", st)
	}
}

// TestBudgetRecencyOrder: a warm hit refreshes an entry's LRU position, so
// the next eviction picks the stale entry instead.
func TestBudgetRecencyOrder(t *testing.T) {
	cost := modelCost(t)
	s := NewBudgeted(t.TempDir(), 2*cost)
	for _, app := range []string{"A", "B"} {
		if _, err := s.Build(app, storeApp, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	// Touch A: B becomes the LRU entry.
	if b, err := s.Build("A", storeApp, Options{}); err != nil || !b.CacheHit {
		t.Fatalf("warm hit expected: %v %+v", err, b)
	}
	if _, err := s.Build("C", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	if b, err := s.Build("A", storeApp, Options{}); err != nil || !b.CacheHit {
		t.Fatalf("recently touched A was evicted: %v %+v", err, b)
	}
	if b, err := s.Build("B", storeApp, Options{}); err != nil || b.CacheHit {
		t.Fatalf("LRU entry B should have been evicted: %v %+v", err, b)
	}
}

// TestBudgetSmallerThanOneModel: the build still succeeds and is served to
// the caller (and any singleflight waiters), but nothing stays resident.
func TestBudgetSmallerThanOneModel(t *testing.T) {
	s := NewBudgeted("", 1) // in-memory: re-access must re-rip
	b1, err := s.Build("A", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b1.Model == nil || b1.RipStats.Clicks == 0 {
		t.Fatalf("over-budget build incomplete: %+v", b1)
	}
	if st := s.Stats(); st.ResidentModels != 0 || st.ResidentBytes != 0 {
		t.Fatalf("over-budget model was cached: %+v", st)
	}
	b2, err := s.Build("A", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b2.CacheHit || b2.RipStats.Clicks == 0 {
		t.Fatalf("re-access of an uncacheable model should rebuild: %+v", b2)
	}
}

// TestBudgetConcurrentTightBudget hammers a budget that holds only one of
// three models from many goroutines; run under -race. Every call must get a
// usable model and the store must end within budget.
func TestBudgetConcurrentTightBudget(t *testing.T) {
	cost := modelCost(t)
	s := NewBudgeted(t.TempDir(), cost+cost/2)
	apps := []string{"A", "B", "C"}
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				b, err := s.Build(apps[(i+j)%len(apps)], storeApp, Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if b.Model == nil {
					t.Error("nil model under tight budget")
					return
				}
			}
		}(i)
	}
	wg.Wait()
	st := s.Stats()
	if st.ResidentBytes > s.Budget() {
		t.Fatalf("resident %d over budget %d after quiescence: %+v", st.ResidentBytes, s.Budget(), st)
	}
	if st.Evictions == 0 {
		t.Fatalf("tight budget never evicted: %+v", st)
	}
	if st.Hits+st.Misses < 12*4 {
		t.Fatalf("lookup accounting lost calls: %+v", st)
	}
}

func TestStatsCounters(t *testing.T) {
	s := New()
	if _, err := s.Build("A", storeApp, Options{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := s.Build("A", storeApp, Options{}); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Misses != 1 || st.Hits != 3 {
		t.Fatalf("want 1 miss / 3 hits, got %+v", st)
	}
	if st.SnapshotLoads != 0 || st.Evictions != 0 {
		t.Fatalf("in-memory unbudgeted store should neither load snapshots nor evict: %+v", st)
	}
	if st.ResidentModels != 1 || st.ResidentBytes <= 0 {
		t.Fatalf("resident accounting wrong: %+v", st)
	}
}

// onlySnapshot returns the path and contents of the one file in dir.
func onlySnapshot(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	files, err := os.ReadDir(dir)
	if err != nil || len(files) != 1 {
		t.Fatalf("want one snapshot file in %s: %v (%d files)", dir, err, len(files))
	}
	path := filepath.Join(dir, files[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, data
}

// TestSnapshotModelSection: a restart under the options a snapshot's
// model section was written with takes the model from the section (here
// the recorded core rendering is altered on disk, and the restart serves
// it as recorded); under other options it takes the graph alone and runs
// the transform, and the file is left as it is either way.
func TestSnapshotModelSection(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path, data := onlySnapshot(t, dir)
	core := cold.Model.Core()
	at := bytes.Index(data, []byte(core))
	if at < 0 || !strings.HasPrefix(core, "main-tree:") {
		t.Fatal("snapshot does not hold the core rendering")
	}
	data[at] = 'M'
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	warm, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
	if err != nil || !warm.FromSnapshot {
		t.Fatalf("restart did not load the snapshot: %v", err)
	}
	if got := warm.Model.Core(); got != "M"+core[1:] {
		t.Errorf("restart's core rendering is not the recorded one: %.20q", got)
	}
	if warm.TransformStats != cold.TransformStats || warm.CoreTokens != cold.CoreTokens {
		t.Errorf("restart's stats or tokens differ: %+v/%d vs %+v/%d", warm.TransformStats, warm.CoreTokens, cold.TransformStats, cold.CoreTokens)
	}
	if warm.Model.Full() != cold.Model.Full() {
		t.Error("restart's forest renders differently from the cold build's")
	}

	other := forest.Options{CloneThreshold: 1}
	b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{Transform: other})
	if err != nil || !b.FromSnapshot {
		t.Fatalf("restart under other options did not load the snapshot's graph: %v", err)
	}
	f, ts, err := forest.Transform(b.Graph, other)
	if err != nil {
		t.Fatal(err)
	}
	want := describe.NewModel(f)
	if b.TransformStats != ts || b.Model.Core() != want.Core() || b.Model.Full() != want.Full() ||
		b.CoreTokens != describe.Tokens(want.Core()) {
		t.Errorf("restart under other options is not the transform's model: stats %+v, want %+v", b.TransformStats, ts)
	}
	if ts == cold.TransformStats {
		t.Fatal("the other options made the same forest; the test shows nothing")
	}
	if _, after := onlySnapshot(t, dir); !bytes.Equal(after, data) {
		t.Error("a restart rewrote the snapshot")
	}
}

// TestMalformedModelSectionRebuilds: a model section that is cut short,
// runs on, disagrees with its forest or holds a broken shape makes the
// whole file a miss: the store re-rips, rewrites the file in full, and the
// next store reloads it.
func TestMalformedModelSectionRebuilds(t *testing.T) {
	dir := t.TempDir()
	cold, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	path, whole := onlySnapshot(t, dir)
	shape := forest.AppendShape(nil, cold.Model.Forest)
	if !bytes.HasSuffix(whole, shape) || shape[2] != 0 {
		t.Fatal("snapshot does not end with the forest's shape, main root first")
	}
	head := whole[:len(whole)-len(shape)]
	lying := cold
	lying.TransformStats.ForestNodes++
	graph := whole[:len(whole)-len(appendModel(nil, forest.Options{}, &cold))]

	for name, data := range map[string][]byte{
		"truncated":      whole[:len(whole)-1],
		"trailing byte":  append(append([]byte{}, whole...), 0),
		"stats disagree": append(append([]byte{}, graph...), appendModel(nil, forest.Options{}, &lying)...),
		"main root moved": append(append(append([]byte{}, head...), shape[:2]...),
			append([]byte{2}, shape[3:]...)...),
	} {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if b.FromSnapshot || b.RipStats.Clicks == 0 {
			t.Errorf("%s: the malformed snapshot was trusted", name)
		}
		if _, got := onlySnapshot(t, dir); !bytes.Equal(got, whole) {
			t.Errorf("%s: the snapshot was not rewritten in full", name)
		}
		if b, err := NewPersistent(dir).Build("StoreDemo", storeApp, Options{}); err != nil || !b.FromSnapshot {
			t.Errorf("%s: the rewritten snapshot did not reload: %v", name, err)
		}
	}
}

// TestVersion1SnapshotIgnored: a file named for SnapshotVersion 1, which
// held the graph alone, is not read; the store rips and writes its own
// file beside it.
func TestVersion1SnapshotIgnored(t *testing.T) {
	dir := t.TempDir()
	s := NewPersistent(dir)
	b, err := New().Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := ung.EncodeBinary(b.Graph)
	if err != nil {
		t.Fatal(err)
	}
	path := s.snapshotPath(RipFingerprint("StoreDemo", ung.Config{}))
	old := strings.Replace(path, "-v2-", "-v1-", 1)
	if old == path {
		t.Fatalf("snapshot name %s carries no version 2", path)
	}
	if err := os.WriteFile(old, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	b, err = s.Build("StoreDemo", storeApp, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if b.FromSnapshot || b.RipStats.Clicks == 0 {
		t.Fatal("the version 1 file was read")
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("the rebuild wrote no snapshot: %v", err)
	}
	if got, err := os.ReadFile(old); err != nil || !bytes.Equal(got, v1) {
		t.Errorf("the version 1 file was changed: %v", err)
	}
}
