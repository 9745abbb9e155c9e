package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(i + 1)
	}
	return s
}

func TestNearestRank(t *testing.T) {
	s := seq(10)
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := nearestRank(s, c.p); got != c.want {
			t.Errorf("p%g of 1..10 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := newDist([]float64{3, 1, 2}).median(); got != 2 {
		t.Errorf("median of unsorted {3,1,2} = %g, want 2", got)
	}
	if got := newDist(nil).median(); !math.IsNaN(got) {
		t.Errorf("median of no samples = %g, want NaN", got)
	}
}

// TestTailLeavesTenBeyond checks the reporting rule: the highest ladder
// percentile with at least ten samples above its rank.
func TestTailLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{
		{10000, 99.9}, // rank 9990: 10 beyond
		{9999, 99},    // rank 9990 at p99.9 leaves 9
		{1000, 99},    // rank 990: 10 beyond
		{999, 98},     // p99 rank 990 leaves 9
		{200, 95},     // rank 190: 10 beyond
		{100, 90},     // rank 90: 10 beyond
		{50, 80},      // rank 40: 10 beyond
		{20, 50},      // rank 10: 10 beyond
		{11, 100},     // nothing qualifies: the maximum
	} {
		d := newDist(seq(c.n))
		v, p := d.tail()
		if p != c.wantP {
			t.Errorf("n=%d: tail percentile p%g, want p%g", c.n, p, c.wantP)
			continue
		}
		if beyond := c.n - int(v); p < 100 && beyond < minBeyond {
			t.Errorf("n=%d: p%g = %g leaves %d samples beyond, want >= %d", c.n, p, v, beyond, minBeyond)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in         []float64
		q1, q2, q3 float64
	}{
		{seq(10), 2.75, 5.5, 8.25},
		{[]float64{1, 2}, 0.75, 1.5, 2.25}, // extrapolated, as Python does
		{[]float64{5, 1, 3}, 1, 3, 5},
		{[]float64{0.9, 1.3, 1.1, 1.0, 1.2, 1.05, 0.95, 1.15, 1.25, 1.0}, 0.9875, 1.075, 1.2125},
	} {
		q1, q2, q3 := quartiles(c.in)
		if !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.in, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := repeated(seq(10), "runs"); got != "median of 10 runs, quartiles 2.75 to 8.25" {
		t.Errorf("repeated(1..10) = %q", got)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("medianOf even = %g, want 2.5", got)
	}
	if got := medianOf([]float64{9, 1, 5}); got != 5 {
		t.Errorf("medianOf odd = %g, want 5", got)
	}
}

// TestFailureAccounting checks that failures count against attempts and
// that a failed operation misses every latency limit.
func TestFailureAccounting(t *testing.T) {
	var total tally
	total.add(tally{attempted: 90, failed: 0})
	total.add(tally{attempted: 10, failed: 5})
	if total.attempted != 100 || total.failed != 5 || total.failedFrac() != 0.05 {
		t.Errorf("tally = %+v (frac %g), want 100 attempted, 5 failed, 0.05", total, total.failedFrac())
	}
	if (tally{}).failedFrac() != 0 {
		t.Error("failedFrac with nothing attempted should be 0")
	}
	ok := latency(3*time.Millisecond, nil)
	bad := latency(time.Microsecond, errors.New("refused"))
	if ok != 3 || !math.IsInf(bad, 1) {
		t.Errorf("latency samples = %g, %g; want 3 and +Inf", ok, bad)
	}
	// One failure in twenty samples lands above p90's rank, so p90 stays
	// finite while the maximum is +Inf.
	samples := append(seq(19), bad)
	d := newDist(samples)
	if v := d.p(90); math.IsInf(v, 0) {
		t.Errorf("p90 with one failure in 20 = %g, want finite", v)
	}
	if v := d.p(100); !math.IsInf(v, 1) {
		t.Errorf("p100 with one failure = %g, want +Inf", v)
	}
	r := newResult(discard{})
	r.ops = tally{attempted: 3, failed: 1}
	if r.correct() {
		t.Error("a run with a failed operation must not be correct")
	}
	r.ops.failed = 0
	r.gate(false, "forced")
	if r.correct() {
		t.Error("a run with a failed gate must not be correct")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// TestRSSSamplerPeaks checks that each mark records the peak of its own unit
// and that a sampler with nothing kept reports an error, not a zero.
func TestRSSSamplerPeaks(t *testing.T) {
	s := sampleRSS("self")
	s.mark(false)
	held := make([]byte, 16<<20)
	for i := range held {
		held[i] = 1
	}
	s.mark(true)
	s.mark(true)
	peaks, err := s.close()
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 2 || peaks[0] < 16 || peaks[1] <= 0 {
		t.Errorf("peaks %v: want two positive peaks, the first above the 16 MiB held", peaks)
	}
	held[0] = 0
	if _, err := sampleRSS("self").close(); err == nil {
		t.Error("a sampler with no kept peaks returned no error")
	}
}
