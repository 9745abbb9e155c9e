package bench

import (
	"context"
	"runtime"

	"repro/internal/taskpack"
)

// CapacityReporter is implemented by dispatchers whose capacity changes at
// runtime — RemoteDispatcher's is the cells its replicas in rotation can
// hold in flight. RunStreamedIn paces the grid against it; dispatchers
// without it (LocalDispatcher) stream at GOMAXPROCS.
type CapacityReporter interface {
	Capacity() int
}

// RunStreamedIn executes a task registry's full evaluation grid paced by
// the dispatcher's live capacity: runGrid dispatches the next cell whenever
// the fleet has room for it, re-reading Capacity() as it goes, so
// concurrency shrinks when replicas fail and grows when they recover or
// join mid-run. The report and error semantics are RunDispatchedIn's.
//
// When every replica is down the reported capacity is zero; the feeder
// still keeps one dispatch in flight so the run surfaces the terminal
// "all replicas failed" error — or rides a recovery — instead of parking
// forever on a poll loop.
func RunStreamedIn(ctx context.Context, reg *taskpack.Registry, d Dispatcher, runs int) (*Report, error) {
	capacity := func() int { return runtime.GOMAXPROCS(0) }
	if cr, ok := d.(CapacityReporter); ok {
		capacity = func() int { return max(cr.Capacity(), 1) }
	}
	return runGrid(ctx, reg, d, runs, capacity)
}
