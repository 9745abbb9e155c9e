package bench

import (
	"context"
	"fmt"

	"repro/internal/agent"
	"repro/internal/serveproto"
)

// postCell is the cell post for failover: one POST /v1/cells round trip
// carrying the one cell Dispatch hands it, under the run's pack handshake.
// postEnvelope sorts the HTTP statuses; a 200 that does not echo the cell's
// task, setting and run count is the replica's fault, so failover
// down-marks it and re-sends the cell elsewhere.
func (d *RemoteDispatcher) postCell(ctx context.Context, rep *replica, cells []Cell) ([]answer[[]agent.Outcome], error) {
	c := cells[0]
	req := serveproto.SessionRequest{App: c.App, Task: c.Task, Setting: c.Setting, Runs: c.Runs, Pack: d.pack, PackHash: d.packHash}
	var sr serveproto.SessionResponse
	if err := d.postEnvelope(ctx, rep, serveproto.PathCells, nil, req, &sr); err != nil {
		return nil, err
	}
	if sr.Task != c.Task || sr.Setting != c.Setting || len(sr.Outcomes) != c.Runs {
		return nil, fmt.Errorf("response echoes (%q,%q,%d outcomes), want (%q,%q,%d)",
			sr.Task, sr.Setting, len(sr.Outcomes), c.Task, c.Setting, c.Runs)
	}
	return []answer[[]agent.Outcome]{{res: sr.Outcomes}}, nil
}
