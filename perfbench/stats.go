package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// tailLadder lists the percentiles a tail figure may report, highest first.
// tail picks the highest one that still leaves at least minBeyond samples
// above it, so a short run reports p95 instead of a p99 resting on one or
// two samples.
var tailLadder = []float64{99.9, 99, 98, 95, 90, 80, 75, 50}

// minBeyond is the number of samples a reported percentile must leave above
// its rank.
const minBeyond = 10

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. sorted must be ascending and non-empty.
func nearestRank(sorted []float64, p float64) float64 {
	return sorted[rankOf(len(sorted), p)-1]
}

// rankOf is the 1-based nearest rank of the p-th percentile among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps decimal percentiles exact: 99.9% of 10000 is rank
	// 9990, not 9991 from a rounding error in 99.9/100.
	k := int(math.Ceil(p*float64(n)/100 - 1e-9))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	return k
}

// dist is a sample of one timing, in milliseconds unless stated otherwise.
type dist struct {
	sorted []float64
}

// newDist copies and sorts the samples.
func newDist(samples []float64) dist {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return dist{sorted: s}
}

// msDist converts durations to a millisecond distribution.
func msDist(ds []time.Duration) dist {
	s := make([]float64, len(ds))
	for i, d := range ds {
		s[i] = ms(d)
	}
	return newDist(s)
}

func (d dist) n() int { return len(d.sorted) }

// p returns the p-th nearest-rank percentile, or NaN for an empty sample.
func (d dist) p(p float64) float64 {
	if len(d.sorted) == 0 {
		return math.NaN()
	}
	return nearestRank(d.sorted, p)
}

// median is the 50th nearest-rank percentile.
func (d dist) median() float64 { return d.p(50) }

// tail returns the highest ladder percentile with at least minBeyond samples
// beyond its rank, and that percentile. With fewer than minBeyond+1 samples
// no percentile qualifies; the maximum is returned with p = 100.
func (d dist) tail() (value, p float64) {
	n := len(d.sorted)
	if n == 0 {
		return math.NaN(), 0
	}
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= minBeyond {
			return nearestRank(d.sorted, q), q
		}
	}
	return d.sorted[n-1], 100
}

// describe renders "p50 X, pQ Y (n=N)" for the report.
func (d dist) describe(unit string) string {
	v, q := d.tail()
	return fmt.Sprintf("p50 %.3f %s, p%g %.3f %s (n=%d)", d.median(), unit, q, v, unit, d.n())
}

// quartiles returns the three cut points of Python's
// statistics.quantiles(values, n=4) with its default exclusive method: cut i
// sits at 1-based position i·(n+1)/4, interpolated between its neighbours
// (and extrapolated from the outermost pair when the position falls outside
// the data, exactly as Python does). At least two values are required.
func quartiles(values []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// repeated describes a figure measured several times in one run, for the
// report: how many times, and the quartiles around the reported median.
func repeated(values []float64, what string) string {
	if len(values) < 2 {
		return fmt.Sprintf("%d %s", len(values), what)
	}
	q1, _, q3 := quartiles(values)
	return fmt.Sprintf("median of %d %s, quartiles %.4g to %.4g", len(values), what, q1, q3)
}

// medianOf returns the middle value of values (the mean of the two middle
// values for an even count), the figure each run reports when it repeats a
// measurement. It returns NaN for no values.
func medianOf(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tally counts attempted and failed operations. A failed operation also
// misses every latency limit: its latency sample is +Inf.
type tally struct {
	attempted int
	failed    int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// failedFrac is failed over attempted; zero when nothing was attempted.
func (t tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// latency returns the sample to record for one operation: its duration in
// milliseconds, or +Inf when it failed.
func latency(d time.Duration, err error) float64 {
	if err != nil {
		return math.Inf(1)
	}
	return ms(d)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
