package ung

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/appkit"
)

// RipDispatched builds the UNG by DFS differential capture (paper §4.1),
// with expansions delegated to an Expander — an in-process pool
// (RipParallel), a fleet of serving replicas (bench.RemoteExpander), or
// anything else satisfying the seam. A nil expander expands each frame on
// the probe itself when the frame is popped: that is the sequential Rip.
// Every expander yields the same graph — same nodes, same discovery order,
// same edge insertion order — regardless of where or in what order
// expansions actually execute.
//
// The design separates the two halves of the DFS:
//
//   - Expansion (reach the click path, click, differential capture)
//     touches only an application instance, through its Cursor. It is a
//     deterministic function of (context, path, control), so any instance
//     anywhere yields the same result the coordinator's own would —
//     including after a retry, which is what makes remote re-dispatch
//     safe.
//   - Application (add nodes and edges, push newly discovered frames)
//     touches the shared graph. The coordinator performs it alone, popping
//     frames in exactly the DFS order, so the merged graph is deterministic
//     regardless of expansion timing.
//
// With an expander, every clickable frame pushed on the coordinator's stack
// is dispatched immediately; the coordinator consumes results in LIFO stack
// order. All speculative work is useful work — each stacked frame is
// consumed exactly once.
//
// The coordinator alone accounts for the work, from the expansions it
// applies: Clicks and Snapshots are the probe's seeding work plus every
// applied expansion's, and SimulatedTime is the probe's seeding time plus
// the makespan of the applied expansions' Elapsed list-scheduled onto
// ExpanderStats.Workers virtual workers (one for a nil expander). So the
// figures are a function of the graph alone, whatever the scheduling. On an
// error path the Stats describe the graph returned: in-flight expansions
// still run to completion, but they are not counted.
//
// The probe instance serves the coordinator, through a cursor of its own:
// application metadata, the per-context initial-screen captures and, with a
// nil expander, every expansion. RipDispatched always closes the expander
// before returning, and returns the probe's UI to the state it found it in
// (the document model keeps what the clicks did to it).
func RipDispatched(probe *appkit.App, cfg Config, ex Expander) (*Graph, Stats, error) {
	cfg.fill()
	g := NewGraph(probe.Name)
	st := Stats{Workers: 1}
	cur := NewCursor(probe)
	var seedTime time.Duration
	var costs []time.Duration // applied expansions' Elapsed, in application order

	finish := func(err error) (*Graph, Stats, error) {
		cur.Close()
		if ex != nil {
			st.Workers = ex.Close().Workers
		}
		st.SimulatedTime = seedTime + makespan(costs, st.Workers)
		st.Nodes = g.NodeCount()
		st.Edges = g.EdgeCount()
		return g, st, err
	}

	// pending mirrors the DFS stack. With an expander, clickable frames
	// carry its result channel; the rest resolve on the coordinator. A node
	// is pushed at most once: only when AddNode first creates it.
	type pending struct {
		f    Frame
		node int32
		res  <-chan ExpandResult
	}

	var stack []pending
	ctx := ""

	push := func(node int32, path []string) {
		p := pending{f: Frame{ID: g.Nodes[node].ID, Path: path}, node: node}
		// Non-clickable frames need no instance work; dispatching them
		// would only burn expander capacity on a guaranteed skip.
		if ex != nil && clickable(g.Nodes[node].Type) {
			p.res = ex.Expand(ctx, p.f)
		}
		stack = append(stack, p)
	}

	contexts := ripContexts(probe)
	st.Contexts = len(contexts)

	for _, c := range contexts {
		ctx = c
		seedTime += seedContext(g, cur, ctx, &st, push)

		for len(stack) > 0 {
			if g.NodeCount() > cfg.MaxNodes {
				return finish(fmt.Errorf("ung: node limit %d exceeded", cfg.MaxNodes))
			}
			p := stack[len(stack)-1]
			stack = stack[:len(stack)-1]

			if !clickable(g.Nodes[p.node].Type) {
				st.Skipped++
				continue
			}
			var exp Expansion
			if ex == nil {
				exp = cur.Expand(ctx, p.f)
			} else if r := <-p.res; r.Err != nil {
				return finish(fmt.Errorf("ung: expand %q: %w", p.f.ID, r.Err))
			} else {
				exp = r.Expansion
			}
			costs = append(costs, exp.Elapsed)
			applyExpansion(g, cfg, ctx, p.f, exp, &st, push)
		}
	}

	return finish(nil)
}

// makespan list-schedules the costs, in order, onto k virtual workers — each
// to the least-loaded worker, the lowest index on ties — and returns the
// busiest worker's load: the wall-clock analog of k machines expanding the
// frames in the order the coordinator applied them.
func makespan(costs []time.Duration, k int) time.Duration {
	load := make([]time.Duration, max(k, 1))
	for _, c := range costs {
		least := 0
		for i := range load {
			if load[i] < load[least] {
				least = i
			}
		}
		load[least] += c
	}
	return slices.Max(load)
}

// RipParallel builds the UNG with a pool of worker goroutines, each driving
// its own throwaway application instance built by factory. It produces a
// graph byte-identical to Rip(factory(), cfg) at a fraction of the
// simulated cost; see RipDispatched for the coordinator/worker contract.
//
// workers <= 1 degrades to the sequential Rip on a single fresh instance.
func RipParallel(factory func() *appkit.App, cfg Config, workers int) (*Graph, Stats, error) {
	if workers <= 1 {
		return Rip(factory(), cfg)
	}
	return RipDispatched(factory(), cfg, newLocalExpander(factory, workers))
}
