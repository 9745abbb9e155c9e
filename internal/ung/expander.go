package ung

// ExpandResult is one expansion delivered back to the coordinator. A remote
// expander reports transport and protocol failures in Err (a frame that
// could not be expanded anywhere).
type ExpandResult struct {
	Expansion Expansion
	Err       error
}

// ExpanderStats describes an expander's shape for the coordinator's
// accounting. The work itself is counted by the coordinator from the
// expansions it applies, never by the expander.
type ExpanderStats struct {
	// Workers is the expander's width (for a sharded one, the fleet's total
	// in-flight capacity): the number of virtual workers the coordinator
	// schedules applied expansions onto.
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
