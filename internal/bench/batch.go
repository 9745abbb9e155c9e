package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/agent"
	"repro/internal/serveproto"
)

// batchLinger is how long the collector holds an underfull batch open for
// more cells before shipping it. Two milliseconds is invisible next to a
// session round trip but long enough for a worker pool's burst of dispatches
// to coalesce; a batch that reaches the configured size ships immediately
// without waiting out the linger.
const batchLinger = 2 * time.Millisecond

// batchItem is one Dispatch call parked in the coalescing queue: its cell,
// the caller's context, and a one-shot result channel. The channel is
// buffered so a delivery never blocks on a caller that gave up (the caller
// returns ctx.Err() and the buffered result is dropped — harmless, cells are
// idempotent).
type batchItem struct {
	ctx  context.Context
	cell Cell
	res  chan batchResult
}

type batchResult struct {
	outcomes []agent.Outcome
	err      error
}

func (it *batchItem) deliver(outcomes []agent.Outcome, err error) {
	it.res <- batchResult{outcomes: outcomes, err: err}
}

// collect is the coalescing loop, one goroutine per batching dispatcher: it
// blocks for a first item, gathers follow-ups until the batch is full or the
// linger expires, and hands the batch to runBatch. Gathering and posting are
// decoupled (runBatch runs in its own goroutine) so a slow batch in flight
// never stalls the next batch from forming.
func (d *RemoteDispatcher) collect() {
	for {
		select {
		case <-d.done:
			// Close raced an enqueue: give stragglers a grace window, then
			// stop. Anything drained here re-dispatches as one-cell
			// envelopes, so no caller is left waiting.
			for {
				select {
				case it := <-d.batchQ:
					d.fallback([]*batchItem{it})
				case <-time.After(10 * time.Millisecond):
					return
				}
			}
		case first := <-d.batchQ:
			items := []*batchItem{first}
			timer := time.NewTimer(d.linger)
		gather:
			for len(items) < d.batch {
				select {
				case it := <-d.batchQ:
					items = append(items, it)
				case <-timer.C:
					break gather
				case <-d.done:
					break gather
				}
			}
			timer.Stop()
			go d.runBatch(items)
		}
	}
}

// runBatch makes exactly one batched attempt — one multi-cell envelope
// against one acquired replica, holding one of its in-flight slots — and
// falls back to one-cell envelopes for anything the attempt cannot settle:
// no live replica, a failed envelope, or individual cells the replica
// failed. The fallback is what keeps batching a pure transport
// optimization: every failure mode degrades to the exact retry/failover
// semantics dispatchSingle already has, so a batched run can never lose a
// cell a sequential run would have completed.
//
// Accounting invariant: every markDown here is paired with one retries
// increment, because the item goes back through replica selection via
// dispatchSingle — so Retries() still equals the sum of per-replica Failures
// at quiescence, batched or not.
func (d *RemoteDispatcher) runBatch(items []*batchItem) {
	rep, _ := d.acquire(items[0].ctx, nil)
	if rep == nil {
		// No live replica, or the first caller gave up waiting for a slot:
		// dispatchSingle settles each item (cancelled callers instantly).
		d.fallback(items)
		return
	}
	cells := make([]Cell, len(items))
	for i, it := range items {
		cells[i] = it.cell
	}
	results, err := d.postBatch(items[0].ctx, rep, cells)
	<-rep.slot
	if err != nil {
		d.settleBatchError(rep, items, err)
		return
	}
	var redo []*batchItem
	for i, it := range items {
		outcomes, err := settleCell(rep, it.cell, results[i])
		if err != nil && !isFinal(err) {
			// This cell failed on this replica; its batch-mates are
			// unaffected.
			d.markDown(rep, err)
			d.countRetries(1)
			redo = append(redo, it)
			continue
		}
		it.deliver(outcomes, err)
	}
	d.fallback(redo)
}

// settleCell turns one cell's result from a /v1/cells envelope into the
// dispatch verdict — the per-cell triage the one-cell path and multi-cell
// batches share. A 200 whose response echoes the cell is a success, counted
// on the replica. Any 4xx, 409 included, is the cell's own fault and comes
// back as a final *requestError: every replica would answer it the same way
// (the pack handshake is envelope-level, so a per-cell 409 is a judgment
// this client never asked for). Anything else — a 5xx, a nonsensical
// status, a 200 that does not echo the cell — is the replica's fault, a
// plain error the caller answers with a down-mark and a re-dispatch.
func settleCell(rep *replica, cell Cell, res serveproto.BatchCellResult) ([]agent.Outcome, error) {
	switch {
	case res.Status == http.StatusOK:
		sr := res.Response
		if sr == nil {
			return nil, errors.New("cell answered 200 with no response body")
		}
		if sr.Task != cell.Task || sr.Setting != cell.Setting || len(sr.Outcomes) != cell.Runs {
			return nil, fmt.Errorf("response echoes (%q,%q,%d outcomes), want (%q,%q,%d)",
				sr.Task, sr.Setting, len(sr.Outcomes), cell.Task, cell.Setting, cell.Runs)
		}
		rep.mu.Lock()
		rep.cells++
		rep.mu.Unlock()
		return sr.Outcomes, nil
	case res.Status >= 400 && res.Status < 500:
		return nil, &requestError{msg: fmt.Sprintf("status %d: %s", res.Status, strings.TrimSpace(res.Error))}
	default:
		return nil, fmt.Errorf("cell status %d: %s", res.Status, res.Error)
	}
}

// settleBatchError triages a failed multi-cell envelope the way
// dispatchSingle triages a failed one-cell one, with one difference: a
// request-level 4xx is not final for the cells. The replica refused the
// envelope as a whole, so each cell retries as its own one-cell envelope,
// where a 4xx is final. Cancellation is not the replica's fault and a pack
// mismatch is fatal for every cell; anything else is one failed attempt on
// the replica.
func (d *RemoteDispatcher) settleBatchError(rep *replica, items []*batchItem, err error) {
	var mismatch *PackMismatchError
	var bad *requestError
	switch {
	case items[0].ctx.Err() != nil:
	case errors.As(err, &mismatch):
		// The operator must restart one side; re-dispatching cannot help.
		for _, it := range items {
			it.deliver(nil, err)
		}
		return
	case errors.As(err, &bad):
		d.logf("replica %s rejected a %d-cell envelope (%v); re-sending its cells one per envelope",
			rep.base, len(items), err)
	default:
		d.markDown(rep, err)
		d.countRetries(1)
	}
	d.fallback(items)
}

// fallback re-dispatches items as one-cell envelopes, each on its own
// goroutine so one slow cell does not serialize its former batch-mates.
// dispatchSingle carries its own retry/failover loop and its own
// accounting, so a fallen-back cell is indistinguishable from one
// dispatched without batching.
func (d *RemoteDispatcher) fallback(items []*batchItem) {
	for _, it := range items {
		go func(it *batchItem) {
			it.deliver(d.dispatchSingle(it.ctx, it.cell))
		}(it)
	}
}

// postBatch runs one POST /v1/cells round trip: the cells in request order
// under the run's request-level pack handshake, the cell count declared in
// the size header (a one-cell envelope therefore gets the single-cell body
// cap, BatchRequestBytes(1) == MaxRequestBytes). The envelope is answered
// with exactly one result per cell or it is the replica's failure.
func (d *RemoteDispatcher) postBatch(ctx context.Context, rep *replica, cells []Cell) ([]serveproto.BatchCellResult, error) {
	req := serveproto.BatchRequest{Pack: d.pack, PackHash: d.packHash, Cells: make([]serveproto.SessionRequest, len(cells))}
	for i, c := range cells {
		req.Cells[i] = serveproto.SessionRequest{App: c.App, Task: c.Task, Setting: c.Setting, Runs: c.Runs}
	}
	var br serveproto.BatchResponse
	if err := d.postEnvelope(ctx, rep, serveproto.PathCells, serveproto.BatchSizeHeader, len(cells), req, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(cells) {
		return nil, fmt.Errorf("envelope answered %d results for %d cells", len(br.Results), len(cells))
	}
	return br.Results, nil
}
