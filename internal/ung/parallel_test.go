package ung

import (
	"fmt"
	"slices"
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
		if w, h := want.Out(int32(i)), got.Out(int32(i)); !slices.Equal(w, h) {
			t.Fatalf("node %q out-edges differ:\n  %v\nvs\n  %v", id, w, h)
		}
		if w, h := want.In(int32(i)), got.In(int32(i)); !slices.Equal(w, h) {
			t.Fatalf("node %q in-edges differ:\n  %v\nvs\n  %v", id, w, h)
		}
	}
}

// TestRipParallelMatchesSequential: RipParallel at any width is Rip on one
// instance, graph and Stats alike, except that Workers is the width and
// SimulatedTime is the seeding time plus the makespan, on that many
// workers, of the expansions' costs in the order the rip applied them.
func TestRipParallelMatchesSequential(t *testing.T) {
	apps := []struct {
		name string
		new  func() *appkit.App
	}{{"Demo", demoApp}, {"Word", func() *appkit.App { return word.New().App }}}
	for _, app := range apps {
		t.Run(app.name, func(t *testing.T) {
			if app.name != "Demo" && testing.Short() {
				t.Skip("office-scale rip")
			}
			seq, seqStats, err := Rip(app.new(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			rec := &recordingExpander{cur: NewCursor(app.new())}
			if _, _, err := RipDispatched(app.new(), Config{}, rec); err != nil {
				t.Fatal(err)
			}
			costs := appliedCosts(rec)
			if len(costs) != len(rec.frames) {
				t.Fatalf("%d of %d dispatched frames applied", len(costs), len(rec.frames))
			}
			seed := seqStats.SimulatedTime
			for _, c := range costs {
				seed -= c
			}
			for _, workers := range []int{0, 1, 2, 4, 8} {
				t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
					g, st, err := RipParallel(app.new, Config{}, workers)
					if err != nil {
						t.Fatal(err)
					}
					assertGraphsIdentical(t, seq, g)
					want := seqStats
					want.Workers = max(workers, 1)
					want.SimulatedTime = seed + makespan(costs, workers)
					if st != want {
						t.Errorf("stats\n  %+v\nwant\n  %+v", st, want)
					}
				})
			}
		})
	}
}

// appliedCosts replays the coordinator's LIFO stack over the frames a rip
// dispatched to rec and returns their expansions' costs in the order the
// rip applied them. A context's seeded frames, with no click path, are
// dispatched together; the frames an applied expansion reveals are
// dispatched next, each with the expanded frame's path plus its id.
func appliedCosts(rec *recordingExpander) []time.Duration {
	var costs []time.Duration
	var stack []int
	next := 0
	take := func(ctx string, path []string) {
		for next < len(rec.frames) && rec.frames[next].ctx == ctx && slices.Equal(rec.frames[next].f.Path, path) {
			stack = append(stack, next)
			next++
		}
	}
	for next < len(rec.frames) {
		ctx := rec.frames[next].ctx
		take(ctx, nil)
		for len(stack) > 0 {
			i := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			costs = append(costs, rec.elapsed[i])
			take(ctx, append(slices.Clone(rec.frames[i].f.Path), rec.frames[i].f.ID))
		}
	}
	return costs
}

// TestRipDispatchedOneWorkerIsRip: an expander of width 1 schedules every
// applied expansion onto one virtual worker, so its Stats — simulated clock
// and snapshots included — are the sequential rip's, though the expansions
// ran on another instance.
func TestRipDispatchedOneWorkerIsRip(t *testing.T) {
	seq, seqStats, err := Rip(demoApp(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, st, err := RipDispatched(demoApp(), Config{}, &recordingExpander{cur: NewCursor(demoApp())})
	if err != nil {
		t.Fatal(err)
	}
	assertGraphsIdentical(t, seq, g)
	if st != seqStats {
		t.Errorf("1-worker stats differ from sequential:\n  %+v\nvs\n  %+v", st, seqStats)
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
