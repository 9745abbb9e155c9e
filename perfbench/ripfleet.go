package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/ung"
)

// ripBatch is dmi-model's frame-coalescing factor for distributed rips.
const ripBatch = 8

// fleet is the distributed-rip workload: the catalog rip as dmi-model
// -replicas runs it, with frame expansions sharded over POST /v1/rip to one
// dmi-serve by bench.RemoteExpander.
type fleet struct {
	e      *env
	d      *daemon
	ref    map[string][]byte // cold local graphs, encoded
	models *agent.Models     // the last good fleet rip's models; the local ones before
}

// setupFleet builds the local reference graphs, then launches the daemon n
// times and keeps the last; it returns each launch's seconds to ready.
func setupFleet(ctx context.Context, e *env, n int) (*fleet, []float64, error) {
	local := modelstore.New()
	models, err := agent.BuildModelsIn(local, e.nproc)
	if err != nil {
		return nil, nil, err
	}
	ref, err := encodeGraphs(local, e.nproc)
	if err != nil {
		return nil, nil, err
	}
	bin, err := e.serve(ctx)
	if err != nil {
		return nil, nil, err
	}
	d, setups, err := launchMedian(ctx, bin, e.nproc, n)
	if err != nil {
		return nil, nil, err
	}
	return &fleet{e: e, d: d, ref: ref, models: models}, setups, nil
}

// timedExpander wraps an expander and times each frame from Expand until its
// result arrives (a bench.expand span under a tracer).
type timedExpander struct {
	inner  ung.Expander
	tr     *tracer
	parent int
	app    string
	done   chan struct{} // closed by Close: results never delivered are dropped

	mu  sync.Mutex
	lat []time.Duration
}

func (t *timedExpander) Expand(ctx string, f ung.Frame) <-chan ung.ExpandResult {
	t0 := time.Now()
	in := t.inner.Expand(ctx, f)
	out := make(chan ung.ExpandResult, 1)
	go func() {
		select {
		case res := <-in:
			t1 := time.Now()
			t.tr.record("bench.expand", t.app+"/"+f.ID, t.parent, t0, t1)
			t.mu.Lock()
			t.lat = append(t.lat, t1.Sub(t0))
			t.mu.Unlock()
			out <- res
		case <-t.done:
		}
	}()
	return out
}

func (t *timedExpander) Close() ung.ExpanderStats {
	st := t.inner.Close()
	close(t.done)
	return st
}

// ripFigures is what one catalog rip through the fleet measured.
type ripFigures struct {
	took       time.Duration
	perApp     map[string]time.Duration
	frames     []time.Duration // per-frame Expand → result
	retries    int
	expansions int64 // dmi-serve /v1/stats delta
	daemonCPU  time.Duration
	loadCPU    time.Duration
	bad        int // apps whose graph differs from the local rip
}

// rip runs the catalog rip through the fleet into a fresh in-memory store.
// Under a tracer it is a fleet.rip span with a bench.fleet_rip child per app,
// whose frames are bench.expand children.
func (fl *fleet) rip(ctx context.Context, tr *tracer) (ripFigures, error) {
	rf := ripFigures{perApp: make(map[string]time.Duration)}
	var mu sync.Mutex
	var wrapped []*timedExpander
	var remotes []*bench.RemoteExpander
	root := tr.begin("fleet.rip", "", 0)
	var appSpan int
	store := modelstore.New()
	opt := modelstore.Options{Workers: fl.e.nproc, NewExpander: func(app string) (ung.Expander, error) {
		re, err := bench.NewRemoteExpander([]string{fl.d.url}, app, bench.RemoteOptions{InFlight: fl.e.nproc, Batch: ripBatch})
		if err != nil {
			return nil, err
		}
		te := &timedExpander{inner: re, tr: tr, parent: appSpan, app: app, done: make(chan struct{})}
		mu.Lock()
		wrapped = append(wrapped, te)
		remotes = append(remotes, re)
		mu.Unlock()
		return te, nil
	}}
	st0, err := fl.d.stats(ctx)
	if err != nil {
		return rf, err
	}
	c0, err := fl.d.cpu()
	if err != nil {
		return rf, err
	}
	l0 := selfCPU()
	t0 := time.Now()
	for _, app := range shuffledApps(fl.e) {
		if err := ctx.Err(); err != nil {
			return rf, err
		}
		appSpan = tr.begin("bench.fleet_rip", app, root)
		a0 := time.Now()
		if _, err := store.Build(app, agent.Factories()[app], opt); err != nil {
			return rf, fmt.Errorf("fleet rip %s: %w", app, err)
		}
		rf.perApp[app] = time.Since(a0)
		tr.end(appSpan)
	}
	rf.took = time.Since(t0)
	tr.end(root)
	rf.loadCPU = selfCPU() - l0
	c1, err := fl.d.cpu()
	if err != nil {
		return rf, err
	}
	rf.daemonCPU = c1 - c0
	st1, err := fl.d.stats(ctx)
	if err != nil {
		return rf, err
	}
	rf.expansions = st1.Expansions - st0.Expansions
	for i, te := range wrapped {
		rf.frames = append(rf.frames, te.lat...)
		rf.retries += remotes[i].Retries()
	}
	got, err := encodeGraphs(store, fl.e.nproc)
	if err != nil {
		return rf, err
	}
	if rf.bad = sameGraphs(fl.ref, got); rf.bad == 0 {
		// The headline check runs on the last good rip's models.
		if fl.models, err = agent.BuildModelsIn(store, fl.e.nproc); err != nil {
			return rf, err
		}
	}
	return rf, nil
}

// checkRip gates a fleet rip: graphs byte-equal to the local rip, no
// retries, and the daemon's expansion count equal to the frames sent.
func checkRip(r *result, rf ripFigures) {
	r.gate(rf.bad == 0 && rf.retries == 0 && rf.expansions == int64(len(rf.frames)),
		"rip-fleet: graphs equal the local rip (%d differ), %d retries, dmi-serve expanded %d of %d frames",
		rf.bad, rf.retries, rf.expansions, len(rf.frames))
}

// runRipFleet is the untraced rip-fleet workload: an untimed warm-up rip
// that fills the daemon's instance lanes, then timed catalog rips.
func runRipFleet(ctx context.Context, e *env, r *result) error {
	fl, setups, err := setupFleet(ctx, e, setupRepeats)
	if err != nil {
		return err
	}
	defer fl.d.kill()
	rss := sampleRSS(fmt.Sprint(fl.d.pid))
	defer rss.close()
	local := fl.models
	if _, err := fl.rip(ctx, nil); err != nil {
		return err
	}
	rss.mark(false)
	// Each rip's figures are taken on their own and the run reports medians
	// over rips, so a stall moves one rip's figures rather than the run's. A
	// catalog rip takes about 1.6 seconds on a 2-core host; a fixed count
	// keeps the daemon's history, and so its peak RSS, the same in every run.
	n := max(2, int(e.seconds/1.6))
	var rates, rips, p50s, tails []float64
	var q float64
	nframes := 0
	for len(rips) < n {
		rf, err := fl.rip(ctx, nil)
		r.ops.attempted++
		if err != nil {
			r.ops.failed++
			return err
		}
		checkRip(r, rf)
		rss.mark(true)
		rips = append(rips, rf.took.Seconds())
		rates = append(rates, float64(len(rf.frames))/rf.took.Seconds())
		fd := msDist(rf.frames)
		p50s = append(p50s, fd.median())
		var tail float64
		tail, q = fd.tail()
		tails = append(tails, tail)
		nframes = len(rf.frames)
		fmt.Fprintf(e.out, "  rip %2d: %.3f s, %d frames; frame latency %s\n", len(rips), rf.took.Seconds(), nframes, fd.describe("ms"))
	}
	if err := checkHeadline(r, "rip-fleet models", local, headlineOutcomes(fl.models)); err != nil {
		return err
	}
	peaks, err := rss.close()
	if err != nil {
		return err
	}
	if err := fl.d.stop(); err != nil {
		return err
	}
	r.gate(true, "rip-fleet: dmi-serve drained and exited 0 on SIGTERM")
	r.note("fleet_rip_s", medianOf(rips), "s", repeated(rips, "catalog rips"))
	r.metric("setup_s", medianOf(setups), "s", "dmi-serve launch to /v1/healthz ready; "+repeated(setups, "launches"))
	r.metric("peak_rss_mb", medianOf(peaks), "MiB", "dmi-serve resident set, peak per rip; "+repeated(peaks, "rips"))
	r.metric("ops_per_s", medianOf(rates), "1/s", "frames expanded per second of catalog rip; "+repeated(rates, "rips"))
	r.metric("op_p50_ms", medianOf(p50s), "ms", fmt.Sprintf("frame Expand to result p50 per rip of %d frames; %s",
		nframes, repeated(p50s, "rips")))
	r.note("frame_tail_ms", medianOf(tails), "ms", fmt.Sprintf("frame Expand to result p%g per rip of %d frames; %s",
		q, nframes, repeated(tails, "rips")))
	return nil
}

// ledgerRipFleet is rip-fleet's share of the traced ledger: a warm-up rip,
// one untraced and one traced catalog rip.
func ledgerRipFleet(ctx context.Context, e *env, r *result, tr *tracer) error {
	fl, _, err := setupFleet(ctx, e, 1)
	if err != nil {
		return err
	}
	defer fl.d.kill()
	if _, err := fl.rip(ctx, nil); err != nil {
		return err
	}
	plain, err := fl.rip(ctx, nil)
	if err != nil {
		return err
	}
	traced, err := fl.rip(ctx, tr)
	r.ops.attempted += 3
	if err != nil {
		r.ops.failed++
		return err
	}
	checkRip(r, plain)
	checkRip(r, traced)
	if err := fl.d.stop(); err != nil {
		return err
	}
	r.gate(true, "rip-fleet: dmi-serve drained and exited 0 on SIGTERM")
	r.note("fleet_rip_s", plain.took.Seconds(), "s", fmt.Sprintf("untraced; traced %.3f", traced.took.Seconds()))
	r.layer("trace.overhead_pct.rip-fleet", 100*(traced.took.Seconds()/plain.took.Seconds()-1), "%")
	fd := msDist(tr.durations("bench.expand"))
	r.layer("bench.expand_ms.p50", fd.median(), "ms")
	r.layer("bench.expand_ms.p99", fd.p(99), "ms")
	for _, app := range agent.AppNames() {
		r.layer("bench.fleet_rip_ms."+app, ms(traced.perApp[app]), "ms")
	}
	n := float64(len(traced.frames))
	r.layer("bench.rip_frames", n, "count")
	r.layer("bench.rip_retries", float64(traced.retries), "count")
	r.layer("dmi-serve.expansions", float64(traced.expansions), "count")
	r.layer("dmi-serve.cpu_ms_per_frame", ms(traced.daemonCPU)/n, "ms")
	r.layer("loadgen.cpu_ms_per_frame", ms(traced.loadCPU)/n, "ms")
	return nil
}
