package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
)

// shot is one open-loop request and its timeline.
type shot struct {
	cell bench.Cell
	// due is when the schedule says the request should be sent; picked is
	// when a sender took it (later than due when every sender was busy);
	// sent is when Dispatch was called; done is when it returned.
	due, picked, sent, done time.Time
	outcomes                []agent.Outcome
	err                     error
}

// latency runs from due to response: a stall delays every request due
// behind it, and that wait is counted.
func (s *shot) latency() time.Duration { return s.done.Sub(s.due) }

// queueWait runs from due until Dispatch was called.
func (s *shot) queueWait() time.Duration { return s.sent.Sub(s.due) }

// service runs from the Dispatch call until it returned.
func (s *shot) service() time.Duration { return s.done.Sub(s.sent) }

// late is how far behind the generator itself sent the request: the send
// time past the later of the due time and the moment a sender was free. It
// excludes waiting for a free sender, which is queue wait.
func (s *shot) late() time.Duration {
	ready := s.due
	if s.picked.After(ready) {
		ready = s.picked
	}
	return s.sent.Sub(ready)
}

// openLoop sends cells[i] at start + i/rate through d, whatever the replies
// do, with at most senders requests in flight: a fixed pool of senders takes
// requests in due order, so a due request waiting for a free sender waits in
// the generator's queue, where it is timed. It returns when every request
// has completed. Each request is traced under phase as a loadgen.request
// span (from due to done) with bench.queue_wait and bench.service children.
func openLoop(ctx context.Context, d bench.Dispatcher, cells []bench.Cell, rate float64, senders int, tr *tracer, phase string) []shot {
	shots := make([]shot, len(cells))
	start := time.Now().Add(5 * time.Millisecond)
	interval := time.Duration(float64(time.Second) / rate)
	for i := range shots {
		shots[i] = shot{cell: cells[i], due: start.Add(time.Duration(i) * interval)}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(senders)
	for w := 0; w < senders; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(shots) {
					return
				}
				s := &shots[i]
				s.picked = time.Now()
				if wait := time.Until(s.due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
					}
				}
				s.sent = time.Now()
				s.outcomes, s.err = d.Dispatch(ctx, s.cell)
				s.done = time.Now()
				if tr != nil {
					key := fmt.Sprintf("%s/%d", phase, i)
					root := tr.record("loadgen.request", key, 0, s.due, s.done)
					tr.record("bench.queue_wait", key, root, s.due, s.sent)
					tr.record("bench.service", key, root, s.sent, s.done)
				}
			}
		}()
	}
	wg.Wait()
	return shots
}

// drawCells draws n single-run cells uniformly from the grid's (setting,
// task) pairs.
func drawCells(rng interface{ Intn(int) int }, grid []bench.Cell, n int) []bench.Cell {
	out := make([]bench.Cell, n)
	for i := range out {
		c := grid[rng.Intn(len(grid))]
		c.Runs = 1
		out[i] = c
	}
	return out
}
