package bench

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/taskpack"
)

// CapacityReporter is implemented by dispatchers whose capacity changes at
// runtime — RemoteDispatcher's is the in-flight cap times the replicas in
// rotation. RunStreamedIn paces its work queue against it; dispatchers
// without it (LocalDispatcher) stream at GOMAXPROCS.
type CapacityReporter interface {
	Capacity() int
}

// streamPoll is how often the streaming feeder re-reads capacity while
// saturated. Capacity grows without a completion event when a replica
// recovers or joins; polling bounds how long that new headroom sits idle.
const streamPoll = 100 * time.Millisecond

// RunStreamedIn executes a task registry's full evaluation grid as a work
// queue: instead of pre-sharding the grid over a fixed worker pool, the
// feeder dispatches the next cell whenever the fleet has capacity for it,
// re-reading Capacity() as it goes. Concurrency therefore follows the
// fleet — it shrinks when replicas fail, grows when they recover or join
// mid-run — which is what a long-lived serving loop needs and a one-shot
// benchmark pool cannot do.
//
// Aggregation is unchanged: outcomes land in grid-order slots and are
// folded sequentially (aggregateGrid), so the report is byte-identical to
// RunDispatchedIn and to the in-process Run no matter how capacity
// fluctuated. Error semantics match RunDispatchedIn: first dispatch error
// cancels and wins; a pure external cancellation returns ctx.Err().
//
// When every replica is down the reported capacity is zero; the feeder
// still keeps one dispatch in flight so the run surfaces the terminal
// "all replicas failed" error — or rides a recovery — instead of parking
// forever on a poll loop.
func RunStreamedIn(ctx context.Context, reg *taskpack.Registry, d Dispatcher, runs int) (*Report, error) {
	var cells []Cell
	if runs > 0 {
		cells = GridCellsIn(reg, runs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := newGridRun(d, cells, cancel)

	capacity := func() int { return runtime.GOMAXPROCS(0) }
	if cr, ok := d.(CapacityReporter); ok {
		capacity = func() int {
			if c := cr.Capacity(); c > 0 {
				return c
			}
			return 1
		}
	}

	completed := make(chan struct{}, len(cells))
	poll := time.NewTicker(streamPoll)
	defer poll.Stop()
	var wg sync.WaitGroup
	inFlight := 0
feed:
	for i := 0; i < len(cells); {
		if ctx.Err() != nil {
			break feed
		}
		if inFlight >= capacity() {
			select {
			case <-completed:
				inFlight--
			case <-poll.C:
				// Re-read capacity: a recovered or newly added replica may
				// have opened headroom with no completion to signal it.
			case <-ctx.Done():
				break feed
			}
			continue
		}
		idx := i
		i++
		inFlight++
		wg.Add(1)
		go func() {
			defer wg.Done()
			g.dispatch(ctx, idx)
			completed <- struct{}{}
		}()
	}
	wg.Wait()

	if err := g.err(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return aggregateGrid(reg, g.out, runs), nil
}
