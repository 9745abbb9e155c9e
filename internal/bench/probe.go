package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"repro/internal/serveproto"
)

// probeTimeout bounds one half-open /v1/healthz round trip. Probes run against
// replicas already suspected dead, so they must fail fast: a hung replica
// costs one prober goroutine 5 seconds, not the 5-minute session timeout.
const probeTimeout = 5 * time.Second

// probeBackoffCap caps the exponential backoff between failed probes of one
// replica (raised to the probe interval when that is longer).
const probeBackoffCap = 30 * time.Second

// probe is the half-open side of the circuit breaker: one goroutine per
// down-marked replica, polling its /v1/healthz on a jittered exponential
// backoff until the replica answers ready again (then it rejoins rotation)
// or the dispatcher is closed. "Half-open" because recovery is judged on
// the cheap health endpoint, not by risking a real cell: no session
// traffic reaches the replica until a probe has vouched for it.
//
// Recovery re-checks pack identity — a replica that restarted with a
// different task pack, or advertises none, is alive but must not rejoin
// this run's rotation (its outcomes would come from different task
// content), so the prober keeps backing off until it advertises exactly
// the run's pack. A dispatcher built without a pack skips the check. The health instance id
// distinguishes a replica that blipped from one that was killed and
// restarted; both recover, but the log says which happened.
func (d *RemoteDispatcher) probe(rep *replica) {
	defer func() {
		rep.mu.Lock()
		rep.probing = false
		rep.mu.Unlock()
	}()
	backoff := d.probeBase
	for {
		select {
		case <-d.done:
			return
		case <-time.After(d.jitter(backoff)):
		}
		rep.mu.Lock()
		stop := rep.removed || !rep.down
		rep.mu.Unlock()
		if stop {
			return
		}
		hz, err := ProbeHealthz(context.Background(), d.probeClient, rep.base)
		if err == nil && d.pack != "" && hz.Pack != d.pack {
			err = fmt.Errorf("pack %q, want %q", hz.Pack, d.pack)
		}
		if err == nil && d.packHash != "" && hz.PackHash != d.packHash {
			err = fmt.Errorf("pack hash %.12s, want %.12s", hz.PackHash, d.packHash)
		}
		if err != nil {
			d.logf("replica %s still down (probe: %v)", rep.base, err)
			backoff *= 2
			if backoff > d.probeMax {
				backoff = d.probeMax
			}
			continue
		}
		rep.mu.Lock()
		if rep.removed {
			rep.mu.Unlock()
			return
		}
		rep.down = false
		rep.recoveries++
		var downFor time.Duration
		if !rep.downSince.IsZero() {
			downFor = time.Since(rep.downSince)
			rep.downTotal += downFor
			rep.downSince = time.Time{}
		}
		restarted := hz.Instance != "" && rep.instance != "" && hz.Instance != rep.instance
		rep.instance = hz.Instance
		rep.mu.Unlock()
		if restarted {
			d.logf("replica %s recovered after %s (new instance %s); back in rotation",
				rep.base, downFor.Round(time.Millisecond), hz.Instance)
		} else {
			d.logf("replica %s recovered after %s; back in rotation",
				rep.base, downFor.Round(time.Millisecond))
		}
		return
	}
}

// ProbeHealthz asks a replica whether it is ready to serve: one GET of
// serveproto.PathHealthz that must answer 200 with a Health body reporting
// OK, which it returns. It is the one health check every in-repo client
// runs — the dispatcher's half-open prober, dmi-coord's startup wait and
// dmi-model's replica wait. A replica without the /v1 surface fails it
// with 404.
func ProbeHealthz(ctx context.Context, client *http.Client, base string) (serveproto.Health, error) {
	var hz serveproto.Health
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+serveproto.PathHealthz, nil)
	if err != nil {
		return hz, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return hz, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return hz, fmt.Errorf("healthz status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		return hz, fmt.Errorf("malformed health body: %w", err)
	}
	if !hz.OK {
		return hz, errors.New("not ready")
	}
	return hz, nil
}

// jitter spreads a backoff delay uniformly over [base/2, 3·base/2) so
// probers for replicas that went down together (one rack, one deploy)
// don't hammer them back in lockstep.
func (d *RemoteDispatcher) jitter(base time.Duration) time.Duration {
	if base <= 0 {
		return 0
	}
	d.mu.Lock()
	f := d.rng.Float64()
	d.mu.Unlock()
	return base/2 + time.Duration(f*float64(base))
}
