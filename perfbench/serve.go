package main

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/serveproto"
)

// Offered rates of the serve phases, in requests per second.
const (
	lightRate = 100
	heavyRate = 300
)

// Segment lengths of an untraced serve run, which alternates light and heavy
// segments after its warm-up. The lengths are fixed, so every segment's tail
// rests on the same number of samples (200 light or 300 heavy requests: p95)
// whatever the run length, and a longer run adds segments. The run reports
// medians over segments, so one stall (a GC pause, a busy neighbour on a
// shared host) moves one segment's figures rather than the run's.
const (
	lightSegment = 2 * time.Second
	heavySegment = time.Second
)

// served is the open-loop serving workload: single-run sessions drawn
// uniformly from the grid's (setting, task) pairs, sent on a fixed schedule
// to one dmi-serve through a RemoteDispatcher with InFlight = nproc.
type served struct {
	e      *env
	models *agent.Models // the benchmark's own warm models, the oracle
	d      *daemon
	rd     *bench.RemoteDispatcher
	pairs  []bench.Cell
}

// setupServe builds the in-process oracle models, then launches the daemon n
// times and keeps the last; it returns each launch's seconds to ready.
func setupServe(ctx context.Context, e *env, n int) (*served, []float64, error) {
	models, err := agent.BuildModelsIn(modelstore.New(), e.nproc)
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
	rd, err := bench.NewRemoteDispatcher([]string{d.url}, bench.RemoteOptions{InFlight: e.nproc})
	if err != nil {
		d.kill()
		return nil, nil, err
	}
	return &served{e: e, models: models, d: d, rd: rd, pairs: bench.GridCellsIn(e.reg, 1)}, setups, nil
}

// close stops the dispatcher and the daemon, requiring a clean drain.
func (s *served) close() error {
	s.rd.Close()
	return s.d.stop()
}

// abort releases everything on an error path; after close it does nothing.
func (s *served) abort() {
	s.rd.Close()
	s.d.kill()
}

// phaseFigures is what one open-loop segment, or a pool of segments offered
// at one rate, measured.
type phaseFigures struct {
	name       string
	shots      []shot
	lat        dist // due → response, ms (a failed request is +Inf)
	wait, svc  dist // due → Dispatch, Dispatch → return, ms
	late       dist // generator lateness, ms
	ops        tally
	elapsed    time.Duration // first due → last response, summed when pooled
	throughput float64       // answered per second of elapsed
	sessions   int64         // dmi-serve /v1/stats sessions delta
	hits       int64         // store hits delta
	misses     int64         // store misses delta
	daemonCPU  time.Duration
	loadCPU    time.Duration
}

// phase offers rate requests per second for dur as one segment.
func (s *served) phase(ctx context.Context, name string, rate float64, dur time.Duration, tr *tracer) (phaseFigures, error) {
	f := phaseFigures{name: name}
	cells := drawCells(s.e.rng, s.pairs, max(int(rate*dur.Seconds()), 1))
	st0, err := s.d.stats(ctx)
	if err != nil {
		return f, err
	}
	c0, err := s.d.cpu()
	if err != nil {
		return f, err
	}
	l0 := selfCPU()
	f.shots = openLoop(ctx, s.rd, cells, rate, s.e.nproc, tr, name)
	f.loadCPU = selfCPU() - l0
	c1, err := s.d.cpu()
	if err != nil {
		return f, err
	}
	f.daemonCPU = c1 - c0
	st1, err := s.d.stats(ctx)
	if err != nil {
		return f, err
	}
	f.sessions = st1.Sessions - st0.Sessions
	f.hits = st1.Store.Hits - st0.Store.Hits
	f.misses = st1.Store.Misses - st0.Store.Misses
	last := f.shots[0].done
	for _, sh := range f.shots {
		if sh.done.After(last) {
			last = sh.done
		}
	}
	f.elapsed = last.Sub(f.shots[0].due)
	f.summarize()
	fmt.Fprintf(s.e.out, "  segment %-6s %3.0f/s offered, %d sent, %d failed, %.1f/s answered; latency %s; late %s\n",
		name, rate, f.ops.attempted, f.ops.failed, f.throughput, f.lat.describe("ms"), f.late.describe("ms"))
	return f, nil
}

// summarize derives the counts and distributions from the shots.
func (f *phaseFigures) summarize() {
	f.ops = tally{}
	var lat, wait, svc, late []float64
	for i := range f.shots {
		sh := &f.shots[i]
		f.ops.attempted++
		if sh.err != nil {
			f.ops.failed++
		}
		lat = append(lat, latency(sh.latency(), sh.err))
		wait = append(wait, ms(sh.queueWait()))
		svc = append(svc, latency(sh.service(), sh.err))
		late = append(late, ms(sh.late()))
	}
	f.lat, f.wait, f.svc, f.late = newDist(lat), newDist(wait), newDist(svc), newDist(late)
	f.throughput = float64(f.answered()) / f.elapsed.Seconds()
}

// pool merges segments offered at one rate into one phase.
func pool(name string, segs ...phaseFigures) phaseFigures {
	p := phaseFigures{name: name}
	for _, f := range segs {
		p.shots = append(p.shots, f.shots...)
		p.elapsed += f.elapsed
		p.sessions += f.sessions
		p.hits += f.hits
		p.misses += f.misses
		p.daemonCPU += f.daemonCPU
		p.loadCPU += f.loadCPU
	}
	p.summarize()
	return p
}

// answered is the number of requests that got outcomes.
func (f phaseFigures) answered() int { return f.ops.attempted - f.ops.failed }

// checkPhases gates the daemon's own session count against the requests
// answered in each phase.
func checkPhases(r *result, phases ...phaseFigures) {
	for _, f := range phases {
		r.gate(f.sessions == int64(f.answered()), "serve %s: dmi-serve counted %d sessions for %d answered requests",
			f.name, f.sessions, f.answered())
	}
}

// checkServed gates every distinct served cell's outcomes against
// bench.RunCell on the benchmark's own warm models, run after the timed
// phases so the check takes no CPU from them. It returns the in-process run
// times, one per distinct cell.
func (s *served) checkServed(r *result, tr *tracer, phases ...phaseFigures) (dist, error) {
	seen := make(map[string]bool)
	var times []time.Duration
	bad := 0
	for _, f := range phases {
		for i := range f.shots {
			sh := &f.shots[i]
			key := sh.cell.Setting + "/" + sh.cell.Task
			if sh.err != nil || seen[key] {
				continue
			}
			seen[key] = true
			set, task, err := bench.ResolveCellIn(s.e.reg, sh.cell)
			if err != nil {
				return dist{}, err
			}
			t0 := time.Now()
			want := bench.RunCell(s.models, set, task, 1, 1)
			t1 := time.Now()
			tr.record("serve.inproc_run", key, 0, t0, t1)
			times = append(times, t1.Sub(t0))
			same, err := sameJSON(want, sh.outcomes)
			if err != nil {
				return dist{}, err
			}
			if !same {
				bad++
			}
		}
	}
	r.gate(bad == 0, "serve: %d of %d distinct served cells equal in-process bench.RunCell", len(seen)-bad, len(seen))
	return msDist(times), nil
}

// checkHeadlineServed serves the headline row's cells (three runs each) and
// gates them against the in-process row.
func (s *served) checkHeadlineServed(ctx context.Context, r *result) error {
	var got []agent.Outcome
	for _, task := range osworld.All() {
		out, err := s.rd.Dispatch(ctx, bench.Cell{App: task.App, Task: task.ID, Setting: headline, Runs: 3})
		r.ops.attempted++
		if err != nil {
			r.ops.failed++
			return fmt.Errorf("serve headline %s: %w", task.ID, err)
		}
		got = append(got, out...)
	}
	return checkHeadline(r, "serve", s.models, got)
}

// runServe is the untraced serve workload: an untimed warm-up, then pairs of
// light and heavy segments for the rest of the run.
func runServe(ctx context.Context, e *env, r *result) error {
	s, setups, err := setupServe(ctx, e, setupRepeats)
	if err != nil {
		return err
	}
	defer s.abort()
	rss := sampleRSS(fmt.Sprint(s.d.pid))
	defer rss.close()
	total := time.Duration(e.seconds * float64(time.Second))
	if _, err := s.phase(ctx, "warmup", lightRate, max(total/10, time.Second), nil); err != nil {
		return err
	}
	rss.mark(false)
	blocks := max(2, int(total*9/10/(lightSegment+heavySegment)))
	var lights, heavies []phaseFigures
	var lightTails, heavyTails []float64
	for b := 0; b < blocks; b++ {
		l, err := s.phase(ctx, "light", lightRate, lightSegment, nil)
		if err != nil {
			return err
		}
		h, err := s.phase(ctx, "heavy", heavyRate, heavySegment, nil)
		if err != nil {
			return err
		}
		rss.mark(true)
		lights, heavies = append(lights, l), append(heavies, h)
		lt, _ := l.lat.tail()
		ht, _ := h.lat.tail()
		lightTails, heavyTails = append(lightTails, lt), append(heavyTails, ht)
	}
	peaks, err := rss.close()
	if err != nil {
		return err
	}
	light, heavy := pool("light", lights...), pool("heavy", heavies...)
	r.ops.add(light.ops)
	r.ops.add(heavy.ops)
	checkPhases(r, light, heavy)
	if _, err := s.checkServed(r, nil, light, heavy); err != nil {
		return err
	}
	if err := s.checkHeadlineServed(ctx, r); err != nil {
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	r.gate(true, "serve: dmi-serve drained and exited 0 on SIGTERM")
	_, lq := lights[0].lat.tail()
	_, hq := heavies[0].lat.tail()
	r.note("light_p50_ms", light.lat.median(), "ms", fmt.Sprintf("pooled over %d segments, n=%d", len(lights), light.lat.n()))
	r.note("light_p99_ms", medianOf(lightTails), "ms", fmt.Sprintf("p%g per segment of %d; %s",
		lq, lights[0].lat.n(), repeated(lightTails, "segments")))
	r.note("heavy_p50_ms", heavy.lat.median(), "ms", fmt.Sprintf("pooled over %d segments, n=%d", len(heavies), heavy.lat.n()))
	r.note("heavy_p99_ms", medianOf(heavyTails), "ms", fmt.Sprintf("p%g per segment of %d; %s",
		hq, heavies[0].lat.n(), repeated(heavyTails, "segments")))
	r.metric("setup_s", medianOf(setups), "s", "dmi-serve launch to /v1/healthz ready; "+repeated(setups, "launches"))
	r.metric("peak_rss_mb", medianOf(peaks), "MiB", "dmi-serve resident set, peak per light+heavy pair; "+repeated(peaks, "pairs"))
	r.metric("ops_per_s", heavy.throughput, "1/s", fmt.Sprintf("heavy: answered per second at %d/s offered (n=%d)", heavyRate, heavy.ops.attempted))
	r.metric("op_p50_ms", light.lat.median(), "ms", "light_p50_ms, due to response")
	return nil
}

// ledgerServe is serve's share of the traced ledger.
func ledgerServe(ctx context.Context, e *env, r *result, tr *tracer, budget time.Duration) error {
	s, _, err := setupServe(ctx, e, 1)
	if err != nil {
		return err
	}
	defer s.abort()
	each := budget / 5
	if _, err := s.phase(ctx, "warmup", lightRate, each/2, nil); err != nil {
		return err
	}
	plainLight, err := s.phase(ctx, "light", lightRate, each, nil)
	if err != nil {
		return err
	}
	plainHeavy, err := s.phase(ctx, "heavy", heavyRate, each, nil)
	if err != nil {
		return err
	}
	light, err := s.phase(ctx, "light", lightRate, each, tr)
	if err != nil {
		return err
	}
	heavy, err := s.phase(ctx, "heavy", heavyRate, each, tr)
	if err != nil {
		return err
	}
	for _, f := range []phaseFigures{plainLight, plainHeavy, light, heavy} {
		r.ops.add(f.ops)
	}
	checkPhases(r, plainLight, plainHeavy, light, heavy)
	inproc, err := s.checkServed(r, tr, light, heavy)
	if err != nil {
		return err
	}
	if err := s.close(); err != nil {
		return err
	}
	r.gate(true, "serve: dmi-serve drained and exited 0 on SIGTERM")

	r.note("light_p50_ms", plainLight.lat.median(), "ms", fmt.Sprintf("untraced; traced %.3f", light.lat.median()))
	r.layer("trace.overhead_pct.serve", 100*(light.lat.median()/plainLight.lat.median()-1), "%")
	for _, f := range []phaseFigures{light, heavy} {
		r.layer("bench.queue_wait_ms."+f.name+".p50", f.wait.median(), "ms")
		r.layer("bench.queue_wait_ms."+f.name+".p99", f.wait.p(99), "ms")
		r.layer("bench.service_ms."+f.name+".p50", f.svc.median(), "ms")
		r.layer("bench.service_ms."+f.name+".p99", f.svc.p(99), "ms")
	}
	r.layer("serve.inproc_run_ms.p50", inproc.median(), "ms")
	r.layer("serve.wire_overhead_ms.p50", light.svc.median()-inproc.median(), "ms")
	enc, dec, size, err := wireCodec(e, tr, light, heavy)
	if err != nil {
		return err
	}
	r.layer("serveproto.req_encode_us", enc, "us")
	r.layer("serveproto.resp_decode_us", dec, "us")
	r.layer("serveproto.resp_bytes", size, "bytes")
	both := pool("traced", light, heavy)
	n := float64(both.answered())
	r.layer("dmi-serve.cpu_ms_per_req", ms(both.daemonCPU)/n, "ms")
	r.layer("loadgen.cpu_ms_per_req", ms(both.loadCPU)/n, "ms")
	r.layer("modelstore.warm_hit_ratio", serveproto.HitRatio(modelstore.Stats{Hits: both.hits, Misses: both.misses}), "ratio")
	r.layer("dmi-serve.sessions", float64(both.sessions), "count")
	r.layer("loadgen.late_ms.p99", both.late.p(99), "ms")
	return nil
}

// wireCodec applies encoding/json to the SessionRequest and SessionResponse
// values that were served, one serveproto.req_encode and one
// serveproto.resp_decode span each, and returns the median encode and decode
// times in microseconds and the mean response size in bytes.
func wireCodec(e *env, tr *tracer, phases ...phaseFigures) (enc, dec, size float64, err error) {
	var encT, decT []float64
	var bytes int
	for _, f := range phases {
		for i := range f.shots {
			sh := &f.shots[i]
			if sh.err != nil {
				continue
			}
			key := fmt.Sprintf("%s/%d", f.name, i)
			req := serveproto.SessionRequest{App: sh.cell.App, Task: sh.cell.Task, Setting: sh.cell.Setting, Runs: 1}
			t0 := time.Now()
			if _, err := json.Marshal(req); err != nil {
				return 0, 0, 0, err
			}
			t1 := time.Now()
			tr.record("serveproto.req_encode", key, 0, t0, t1)
			body, err := json.Marshal(serveproto.SessionResponse{
				App: sh.cell.App, Task: sh.cell.Task, Setting: sh.cell.Setting, Runs: 1,
				Pack: e.reg.Name(), PackHash: e.reg.Hash(), Outcomes: sh.outcomes,
			})
			if err != nil {
				return 0, 0, 0, err
			}
			var resp serveproto.SessionResponse
			t2 := time.Now()
			if err := json.Unmarshal(body, &resp); err != nil {
				return 0, 0, 0, err
			}
			t3 := time.Now()
			tr.record("serveproto.resp_decode", key, 0, t2, t3)
			encT = append(encT, float64(t1.Sub(t0))/1e3)
			decT = append(decT, float64(t3.Sub(t2))/1e3)
			bytes += len(body)
		}
	}
	if len(encT) == 0 {
		return 0, 0, 0, fmt.Errorf("no served responses to encode: %w", errGate)
	}
	return newDist(encT).median(), newDist(decT).median(), float64(bytes) / float64(len(encT)), nil
}
