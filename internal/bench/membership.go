package bench

import (
	"fmt"
	"time"
)

// Elastic membership: the replica list a RemoteDispatcher shards over is
// mutable at runtime. AddReplica and RemoveReplica adjust the fleet while
// dispatches are in flight — the coordinator drives them from a membership
// file re-read on SIGHUP — so capacity can grow or shrink without
// restarting a long-lived run.
//
// Lock discipline: membership operations take d.mu first and rep.mu second
// when they need both; every other path (Dispatch, Stats, Live, the
// prober) copies the membership slice under d.mu, releases it, and only
// then takes per-replica locks. d.mu → rep.mu is therefore the only
// nesting order in the package.

// AddReplica adds a replica to the rotation mid-run. The URL is normalized
// (NormalizeReplicaURL) before comparison. Re-adding a removed replica
// revives it in place: it keeps its counters and in-flight cap, rejoins as
// up, and its next failure re-arms the prober as usual. Adding a URL
// already present (and not removed) is an error.
func (d *RemoteDispatcher) AddReplica(raw string) error {
	base, err := NormalizeReplicaURL(raw)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, rep := range d.replicas {
		if rep.base != base {
			continue
		}
		rep.mu.Lock()
		if !rep.removed {
			rep.mu.Unlock()
			return fmt.Errorf("bench: replica %s already present", base)
		}
		// Revive in place. The removed replica carries no prober (removal
		// stops it), so clear any stale down state and start fresh: if the
		// re-added replica is in fact still dead, the next dispatch fails
		// over and re-arms probing.
		rep.removed = false
		rep.down = false
		rep.downSince = time.Time{}
		rep.mu.Unlock()
		d.logf("replica %s re-added to rotation", base)
		return nil
	}
	d.replicas = append(d.replicas, &replica{base: base, slot: make(chan struct{}, d.inflight)})
	d.logf("replica %s added to rotation", base)
	return nil
}

// RemoveReplica takes a replica out of the rotation mid-run. In-flight
// cells on it finish (or fail over) normally; afterwards it is never
// picked, its prober (if any) stops, and its counters remain visible in
// Stats() flagged Removed. Removing an unknown or already-removed replica
// is an error.
func (d *RemoteDispatcher) RemoveReplica(raw string) error {
	base, err := NormalizeReplicaURL(raw)
	if err != nil {
		return err
	}
	var target *replica
	d.mu.Lock()
	for _, rep := range d.replicas {
		if rep.base == base {
			target = rep
			break
		}
	}
	d.mu.Unlock()
	if target == nil {
		return fmt.Errorf("bench: replica %s not in membership", base)
	}
	target.mu.Lock()
	defer target.mu.Unlock()
	if target.removed {
		return fmt.Errorf("bench: replica %s already removed", base)
	}
	target.removed = true
	if target.down && !target.downSince.IsZero() {
		// Close out the down stretch: a removed replica is not "down", it
		// is gone, and DownSeconds should stop accruing.
		target.downTotal += time.Since(target.downSince)
		target.downSince = time.Time{}
	}
	d.logf("replica %s removed from rotation", base)
	return nil
}

// Members returns the current membership (non-removed replicas) in list
// order, in the normalized form AddReplica/RemoveReplica compare against.
func (d *RemoteDispatcher) Members() []string {
	var members []string
	for _, rep := range d.snapshot() {
		rep.mu.Lock()
		removed := rep.removed
		rep.mu.Unlock()
		if !removed {
			members = append(members, rep.base)
		}
	}
	return members
}

// Capacity reports how many cells the fleet can hold in flight right now:
// the replicas in rotation times the per-replica in-flight cap.
// RunDispatchedIn at concurrency <= 0 polls it to pace the grid, so
// capacity tracks the fleet through failures, recoveries, joins, and leaves.
func (d *RemoteDispatcher) Capacity() int {
	n := 0
	for _, rep := range d.snapshot() {
		rep.mu.Lock()
		ok := !rep.down && !rep.removed
		rep.mu.Unlock()
		if ok {
			n++
		}
	}
	return n * d.inflight
}
