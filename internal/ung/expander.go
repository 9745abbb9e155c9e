package ung

import (
	"errors"
	"sync"

	"repro/internal/appkit"
)

// ExpandResult is one expansion delivered back to the coordinator. Err is
// nil for every local expansion; a remote expander reports transport and
// protocol failures here (a frame that could not be expanded anywhere).
type ExpandResult struct {
	Expansion Expansion
	Err       error
}

// ExpanderStats describes an expander's shape for the coordinator's
// accounting. The work itself is counted by the coordinator from the
// expansions it applies, never by the expander.
type ExpanderStats struct {
	// Workers is the pool width (goroutines for a local pool, total remote
	// in-flight capacity for a sharded one): the number of virtual workers
	// the coordinator schedules applied expansions onto.
	Workers int
}

// Expander runs frame expansions on behalf of a rip coordinator. Expand is
// asynchronous: it returns immediately with a buffered channel that will
// receive exactly one result, so the coordinator can dispatch every stacked
// frame speculatively and consume results in LIFO order. Implementations
// must never block the sender on the coordinator (the channel is buffered by
// the implementation) and must tolerate results that are never read.
//
// Close stops the expander and reports its shape. In-flight expansions run
// to completion before Close returns; undispatched ones are dropped — their
// buffered result channels are simply garbage collected, so an aborted rip
// leaks neither goroutines nor channels. Expand after Close answers an
// immediate error. Close is idempotent.
type Expander interface {
	Expand(ctx string, f Frame) <-chan ExpandResult
	Close() ExpanderStats
}

// localExpander is the in-process expander behind RipParallel: a pool of
// worker goroutines, each driving its own throwaway application instance
// built by factory.
type localExpander struct {
	stack   *FrameStack
	wg      sync.WaitGroup
	workers int
}

// newLocalExpander starts workers goroutines, each on a fresh instance.
func newLocalExpander(factory func() *appkit.App, workers int) *localExpander {
	if workers < 1 {
		workers = 1
	}
	le := &localExpander{stack: NewFrameStack(), workers: workers}
	le.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer le.wg.Done()
			app := factory()
			for {
				batch := le.stack.PopBatch(1)
				if batch == nil {
					return
				}
				j := batch[0]
				j.Deliver(ExpandResult{Expansion: ExpandFrame(app, j.Ctx, j.Frame)})
			}
		}()
	}
	return le
}

// Expand stacks the frame for the pool and returns its result channel.
func (le *localExpander) Expand(ctx string, f Frame) <-chan ExpandResult {
	return le.stack.Push(ctx, f)
}

// Close drains the pool: undispatched frames are dropped and in-flight ones
// run to completion.
func (le *localExpander) Close() ExpanderStats {
	le.stack.Close()
	le.wg.Wait()
	return ExpanderStats{Workers: le.workers}
}

// StackedFrame is one frame expansion parked on a FrameStack.
type StackedFrame struct {
	Ctx   string
	Frame Frame
	done  chan ExpandResult // buffered: workers never block on the coordinator
}

// Deliver answers the Expand call that stacked the frame. Call it exactly
// once per popped frame.
func (s *StackedFrame) Deliver(r ExpandResult) { s.done <- r }

// FrameStack is the LIFO work queue every expander's workers pop from. LIFO
// matters: the coordinator consumes results in stack order, so the most
// recently pushed frames are the ones it will wait on soonest, and those are
// what workers should expand first.
type FrameStack struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []*StackedFrame
	closed bool
}

// NewFrameStack returns an empty, open stack.
func NewFrameStack() *FrameStack {
	s := &FrameStack{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Push parks the frame and returns the channel its result will arrive on.
// On a closed stack nothing is parked and the channel already holds a
// "closed" error.
func (s *FrameStack) Push(ctx string, f Frame) <-chan ExpandResult {
	sf := &StackedFrame{Ctx: ctx, Frame: f, done: make(chan ExpandResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sf.Deliver(ExpandResult{Err: errors.New("ung: expander closed")})
		return sf.done
	}
	s.frames = append(s.frames, sf)
	s.mu.Unlock()
	s.cond.Signal()
	return sf.done
}

// PopBatch blocks until work is available, then returns up to max frames
// from the top of the stack that share one context (a remote envelope
// addresses exactly one app context). It returns nil once the stack is
// closed.
func (s *FrameStack) PopBatch(max int) []*StackedFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.frames) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.frames) == 0 {
		return nil
	}
	top := s.frames[len(s.frames)-1]
	batch := []*StackedFrame{top}
	s.frames = s.frames[:len(s.frames)-1]
	for len(batch) < max && len(s.frames) > 0 && s.frames[len(s.frames)-1].Ctx == top.Ctx {
		batch = append(batch, s.frames[len(s.frames)-1])
		s.frames = s.frames[:len(s.frames)-1]
	}
	return batch
}

// Close wakes every worker and drops undispatched frames (relevant only when
// the coordinator aborts); their buffered result channels are garbage
// collected. Idempotent.
func (s *FrameStack) Close() {
	s.mu.Lock()
	s.closed = true
	s.frames = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}
