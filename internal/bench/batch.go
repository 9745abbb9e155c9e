package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
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

// cellItem is one Dispatch call in flight: its caller's context, its cell
// and a one-shot result channel. The channel is buffered so a delivery never
// blocks on a caller that gave up (the caller returns ctx.Err() and the
// buffered result is dropped — harmless, cells are idempotent).
type cellItem struct {
	ctx  context.Context
	cell Cell
	res  chan cellResult
}

type cellResult struct {
	outcomes []agent.Outcome
	err      error
}

func (it *cellItem) deliver(outcomes []agent.Outcome, err error) {
	it.res <- cellResult{outcomes: outcomes, err: err}
}

// collect is the coalescing loop, one goroutine per batching dispatcher: it
// blocks for a first item, gathers follow-ups until the batch is full or the
// linger expires, and hands the batch to failover on its own goroutine, so
// a slow batch in flight never stalls the next batch from forming. A batch
// serves several callers, so it runs under batchContext rather than any one
// caller's context. collect exits when the dispatcher closes; Dispatch never hands it a cell
// after that (the hand-off is unbuffered and selects on d.done).
func (d *RemoteDispatcher) collect() {
	for {
		var items []*cellItem
		select {
		case <-d.done:
			return
		case it := <-d.batchQ:
			items = append(items, it)
		}
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
		go func() {
			ctx, stop := batchContext(items)
			defer stop()
			failover(ctx, d, items, d.postBatch, (*cellItem).deliver)
		}()
	}
}

// batchContext is the context a coalesced batch runs under: it ends once
// every caller in the batch has given up. A caller that gives up stops
// waiting while its batch-mates still get their answers; an envelope nobody
// waits for any more stops waiting for a slot, aborts its post and fails
// over no further. stop releases the hooks on the callers' contexts.
func batchContext(items []*cellItem) (ctx context.Context, stop func()) {
	ctx, cancel := context.WithCancel(context.Background())
	var waiting atomic.Int64
	waiting.Store(int64(len(items)))
	stops := make([]func() bool, len(items))
	for i, it := range items {
		stops[i] = context.AfterFunc(it.ctx, func() {
			if waiting.Add(-1) == 0 {
				cancel()
			}
		})
	}
	return ctx, func() {
		for _, s := range stops {
			s()
		}
		cancel()
	}
}

// postBatch is the cell envelope for failover: one POST /v1/cells round trip
// carrying the items' cells in order under the run's request-level pack
// handshake, the cell count declared in the size header (a one-cell
// envelope therefore gets the single-cell body cap,
// BatchRequestBytes(1) == MaxRequestBytes). The envelope must answer exactly
// one result per cell or it is the replica's failure; each result is
// settled by settleCell.
func (d *RemoteDispatcher) postBatch(ctx context.Context, rep *replica, items []*cellItem) ([]answer[[]agent.Outcome], error) {
	req := serveproto.BatchRequest{Pack: d.pack, PackHash: d.packHash, Cells: make([]serveproto.SessionRequest, len(items))}
	for i, it := range items {
		c := it.cell
		req.Cells[i] = serveproto.SessionRequest{App: c.App, Task: c.Task, Setting: c.Setting, Runs: c.Runs}
	}
	var br serveproto.BatchResponse
	if err := d.postEnvelope(ctx, rep, serveproto.PathCells, serveproto.BatchSizeHeader, len(items), req, &br); err != nil {
		return nil, err
	}
	if len(br.Results) != len(items) {
		return nil, fmt.Errorf("envelope answered %d results for %d cells", len(br.Results), len(items))
	}
	out := make([]answer[[]agent.Outcome], len(items))
	for i, it := range items {
		out[i].res, out[i].err = settleCell(it.cell, br.Results[i])
	}
	return out, nil
}

// settleCell turns one cell's result from a /v1/cells envelope into its
// verdict. A 200 whose response echoes the cell is a success. Any 4xx, 409
// included, is the cell's own fault and comes back as a final
// *requestError: every replica would answer it the same way (the pack
// handshake is envelope-level, so a per-cell 409 is a judgment this client
// never asked for). Anything else — a 5xx, a nonsensical status, a 200 that
// does not echo the cell — is the replica's fault.
func settleCell(cell Cell, res serveproto.BatchCellResult) ([]agent.Outcome, error) {
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
		return sr.Outcomes, nil
	case res.Status >= 400 && res.Status < 500:
		return nil, &requestError{msg: fmt.Sprintf("status %d: %s", res.Status, strings.TrimSpace(res.Error))}
	default:
		return nil, fmt.Errorf("cell status %d: %s", res.Status, res.Error)
	}
}
