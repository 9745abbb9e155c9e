package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/agent"
	"repro/internal/serveproto"
)

// postBatch is the cell envelope for failover: one POST /v1/cells round trip
// carrying the cells in order under the run's request-level pack handshake,
// the cell count declared in the size header. Dispatch sends one cell per
// envelope, so it gets the single-cell body cap
// (BatchRequestBytes(1) == MaxRequestBytes). The envelope must answer exactly
// one result per cell or it is the replica's failure; each result is
// settled by settleCell.
func (d *RemoteDispatcher) postBatch(ctx context.Context, rep *replica, cells []Cell) ([]answer[[]agent.Outcome], error) {
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
	out := make([]answer[[]agent.Outcome], len(cells))
	for i, c := range cells {
		out[i].res, out[i].err = settleCell(c, br.Results[i])
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
