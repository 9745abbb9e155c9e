// The sustained-load soak harness: dmi-coord -soak drives the fleet with an
// open-loop arrival process instead of one grid pass. Arrivals fire on a
// fixed-rate clock regardless of completions (the load does not back off
// when the fleet struggles — that is the point: an open loop exposes
// queueing and recovery behavior a closed loop hides), each arrival
// dispatches the next grid cell in rotation, and individual failures are
// data points rather than aborts. The output is the recovery path's
// regression record: latency percentiles, failure counts, and the fleet's
// recovery/down totals, printed as one `soak done` line on stderr.
package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/taskpack"
)

// soakStats is the record of one soak run, printed by writeSummary.
type soakStats struct {
	DurationSeconds  float64
	Arrivals         int
	Completed        int
	Failed           int
	ThroughputPerSec float64
	LatencyP50Ms     float64
	LatencyP90Ms     float64
	LatencyP99Ms     float64
	LatencyMaxMs     float64
	Recoveries       int
	DownSeconds      float64
}

// writeSummary prints the one-line `soak done` summary. CI's soak round
// greps its "; N recoveries," field, so its shape is a contract
// (TestCoordinatorSoakRecovery holds it to that grep).
func (ss *soakStats) writeSummary(w io.Writer) {
	fmt.Fprintf(w, "dmi-coord: soak done — %d arrivals, %d completed, %d failed in %.1fs (%.1f cells/s); latency p50 %.1fms p90 %.1fms p99 %.1fms max %.1fms; %d recoveries, %.1fs down\n",
		ss.Arrivals, ss.Completed, ss.Failed, ss.DurationSeconds, ss.ThroughputPerSec,
		ss.LatencyP50Ms, ss.LatencyP90Ms, ss.LatencyP99Ms, ss.LatencyMaxMs, ss.Recoveries, ss.DownSeconds)
}

// runSoakMode is the -soak top half: drive the load, print the telemetry.
func runSoakMode(ctx context.Context, rd *bench.RemoteDispatcher, reg *taskpack.Registry, duration time.Duration, rate float64, runs int, stderr io.Writer) error {
	fmt.Fprintf(stderr, "dmi-coord: soaking for %s at %.1f cells/s (open loop, %d runs per cell) across %d replicas…\n",
		duration, rate, runs, len(rd.Live()))
	ss, err := runSoak(ctx, rd, reg, duration, rate, runs)
	if err != nil {
		return fmt.Errorf("dmi-coord: %w", err)
	}
	ss.writeSummary(stderr)
	writeReplicaLines(stderr, rd)
	return nil
}

// runSoak drives the open-loop arrival process: one cell dispatched every
// 1/rate seconds for the duration, cycling through the grid in canonical
// order. Dispatch failures (e.g. every replica down at once) count as
// failed arrivals and the load keeps coming — a soak's job is to measure
// the outage and the recovery, not to stop at the first one. Cancellation
// (^C) ends the soak early and is returned.
func runSoak(ctx context.Context, rd *bench.RemoteDispatcher, reg *taskpack.Registry, duration time.Duration, rate float64, runs int) (*soakStats, error) {
	cells := bench.GridCellsIn(reg, runs)
	interval := time.Duration(float64(time.Second) / rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}

	var (
		mu        sync.Mutex
		latencies []time.Duration
		completed int
		failed    int
	)
	var wg sync.WaitGroup
	arrivals := 0
	start := time.Now()
	tick := time.NewTicker(interval)
	defer tick.Stop()
	deadline := time.NewTimer(duration)
	defer deadline.Stop()
loop:
	for {
		select {
		case <-ctx.Done():
			break loop
		case <-deadline.C:
			break loop
		case <-tick.C:
			cell := cells[arrivals%len(cells)]
			arrivals++
			wg.Add(1)
			go func() {
				defer wg.Done()
				t0 := time.Now()
				_, err := rd.Dispatch(ctx, cell)
				latency := time.Since(t0)
				mu.Lock()
				defer mu.Unlock()
				if err != nil {
					failed++
					return
				}
				completed++
				latencies = append(latencies, latency)
			}()
		}
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	elapsed := time.Since(start)

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ss := &soakStats{
		DurationSeconds: elapsed.Seconds(),
		Arrivals:        arrivals,
		Completed:       completed,
		Failed:          failed,
		LatencyP50Ms:    percentileMs(latencies, 50),
		LatencyP90Ms:    percentileMs(latencies, 90),
		LatencyP99Ms:    percentileMs(latencies, 99),
	}
	if n := len(latencies); n > 0 {
		ss.LatencyMaxMs = float64(latencies[n-1]) / float64(time.Millisecond)
	}
	if ss.DurationSeconds > 0 {
		ss.ThroughputPerSec = float64(completed) / ss.DurationSeconds
	}
	for _, rs := range rd.Stats() {
		ss.Recoveries += rs.Recoveries
		ss.DownSeconds += rs.DownSeconds
	}
	return ss, nil
}

// percentileMs is the nearest-rank percentile of a sorted latency slice, in
// milliseconds. Nearest-rank (no interpolation) so every reported figure is
// a latency that actually happened.
func percentileMs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return float64(sorted[rank-1]) / float64(time.Millisecond)
}
