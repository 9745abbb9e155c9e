package main

import (
	"testing"
	"time"
)

func sp(id, parent int, name string, start, end time.Duration) span {
	return span{ID: id, Parent: parent, Name: name, Start: start, End: end}
}

// TestSelfTime checks self time = duration minus the union of the
// children's intervals clipped to the parent, with overlapping concurrent
// children counted once.
func TestSelfTime(t *testing.T) {
	spans := []span{
		sp(1, 0, "pass", 0, 100),
		sp(2, 1, "cell", 10, 40),  // overlaps 3
		sp(3, 1, "cell", 30, 50),  // union 10..50 = 40
		sp(4, 1, "cell", 60, 70),  // +10
		sp(5, 1, "cell", 95, 120), // clipped to 95..100 = +5
		sp(6, 2, "run", 12, 20),   // grandchild: only its parent's self shrinks
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 45, 2: 22, 3: 20, 4: 10, 5: 25, 6: 8} {
		if self[id] != want {
			t.Errorf("self[%d] = %d, want %d", id, self[id], want)
		}
	}
	sum := summarize(spans)
	if sum[0].name != "cell" || sum[0].count != 4 || sum[0].self != 77 || sum[0].total != 85 {
		t.Errorf("top summary = %+v, want cell: 4 spans, total 85, self 77", sum[0])
	}
}

func TestTracer(t *testing.T) {
	var off *tracer
	if id := off.begin("x", "", 0); id != 0 {
		t.Errorf("nil tracer begin = %d, want 0", id)
	}
	off.end(0)
	if off.closed() != nil {
		t.Error("nil tracer has spans")
	}

	tr := newTracer()
	root := tr.begin("root", "k", 0)
	t0 := tr.epoch.Add(time.Millisecond)
	child := tr.record("child", "k", root, t0, t0.Add(time.Millisecond))
	open := tr.begin("unfinished", "", 0)
	tr.end(root)
	got := tr.closed()
	if len(got) != 2 || got[1].ID != child || got[1].Parent != root || got[1].dur() != time.Millisecond {
		t.Errorf("closed spans = %+v (open span %d must be excluded)", got, open)
	}
	if d := tr.durations("child"); len(d) != 1 || d[0] != time.Millisecond {
		t.Errorf("durations(child) = %v", d)
	}
}
