package ung

import (
	"reflect"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/office/word"
)

// assertGraphsIdentical compares two graphs byte-for-byte: discovery order,
// node metadata, and the insertion order of both edge lists.
func assertGraphsIdentical(t *testing.T, want, got *Graph) {
	t.Helper()
	if want.App != got.App {
		t.Fatalf("app %q vs %q", want.App, got.App)
	}
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("node count %d vs %d", len(want.Nodes), len(got.Nodes))
	}
	for i := range want.Nodes {
		a, b := &want.Nodes[i], &got.Nodes[i]
		id := a.ID
		if b.ID != id {
			t.Fatalf("discovery order diverges at %d: %q vs %q", i, id, b.ID)
		}
		if a.Name != b.Name || a.Type != b.Type || a.Desc != b.Desc ||
			a.LargeEnum != b.LargeEnum || a.Context != b.Context {
			t.Fatalf("node %q metadata differs: %+v vs %+v", id, a, b)
		}
		if !reflect.DeepEqual(a.Out, b.Out) {
			t.Fatalf("node %q out-edges differ:\n  %v\nvs\n  %v", id, a.Out, b.Out)
		}
		if !reflect.DeepEqual(a.In, b.In) {
			t.Fatalf("node %q in-edges differ:\n  %v\nvs\n  %v", id, a.In, b.In)
		}
	}
}

// TestRipParallelMatchesSequential is the core merge-determinism contract:
// run under -race, N workers must produce a graph byte-identical to the
// sequential rip, including both edge lists' insertion order.
func TestRipParallelMatchesSequential(t *testing.T) {
	seq, seqStats, err := Rip(demoApp(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		par, parStats, err := RipParallel(demoApp, Config{}, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		assertGraphsIdentical(t, seq, par)
		// Every dispatched frame is consumed exactly once, so the parallel
		// rip performs the same exploration — not just reaches the same
		// result by different work.
		if parStats.Explored != seqStats.Explored || parStats.Clicks != seqStats.Clicks ||
			parStats.Snapshots != seqStats.Snapshots {
			t.Errorf("workers=%d: explored/clicks/snapshots %d/%d/%d, want %d/%d/%d",
				workers, parStats.Explored, parStats.Clicks, parStats.Snapshots,
				seqStats.Explored, seqStats.Clicks, seqStats.Snapshots)
		}
		if parStats.Workers != workers {
			t.Errorf("workers stat = %d, want %d", parStats.Workers, workers)
		}
	}
}

// TestRipParallelDeterministic: repeated parallel rips are identical to each
// other (the property TestRipDeterministic asserts for the sequential path).
func TestRipParallelDeterministic(t *testing.T) {
	g1, _, err := RipParallel(demoApp, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	g2, _, err := RipParallel(demoApp, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, g1, g2)
}

func TestRipParallelSingleWorkerDegradesToSequential(t *testing.T) {
	seq, _, err := Rip(demoApp(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, st, err := RipParallel(demoApp, Config{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, seq, par)
	if st.Workers != 1 {
		t.Errorf("workers stat = %d, want 1", st.Workers)
	}
}

// TestRipDispatchedOneWorkerIsRip: a 1-worker pool schedules every applied
// expansion onto one virtual worker, so its Stats — simulated clock and
// snapshots included — are the sequential rip's, though the expansions ran
// on another instance.
func TestRipDispatchedOneWorkerIsRip(t *testing.T) {
	seq, seqStats, err := Rip(demoApp(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, parStats, err := RipDispatched(demoApp(), Config{}, newLocalExpander(demoApp, 1))
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, seq, par)
	if parStats != seqStats {
		t.Errorf("1-worker stats differ from sequential:\n  %+v\nvs\n  %+v", parStats, seqStats)
	}
}

// TestMakespan pins the virtual schedule: each cost goes to the
// least-loaded worker, the lowest index on ties.
func TestMakespan(t *testing.T) {
	costs := []time.Duration{5, 3, 4, 1, 1, 2}
	for _, tc := range []struct {
		k    int
		want time.Duration
	}{
		{0, 16}, {1, 16}, {2, 9}, {3, 6}, {8, 5},
	} {
		if got := makespan(costs, tc.k); got != tc.want {
			t.Errorf("makespan(k=%d) = %d, want %d", tc.k, got, tc.want)
		}
	}
	if got := makespan(nil, 4); got != 0 {
		t.Errorf("makespan of nothing = %d", got)
	}
}

func TestRipParallelNodeLimit(t *testing.T) {
	_, _, err := RipParallel(demoApp, Config{MaxNodes: 10}, 4)
	if err == nil {
		t.Fatal("node limit not enforced")
	}
}

// TestRipParallelWord compares the full Word rip across the sequential and
// parallel paths; skipped in -short mode.
func TestRipParallelWord(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale rip")
	}
	seq, _, err := Rip(word.New().App, Config{})
	if err != nil {
		t.Fatal(err)
	}
	par, st, err := RipParallel(func() *appkit.App { return word.New().App }, Config{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, seq, par)
	t.Logf("word parallel rip: %d nodes, %d clicks, %d workers, makespan %s",
		st.Nodes, st.Clicks, st.Workers, st.SimulatedTime)
}
