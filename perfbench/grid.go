package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
)

// gridRuns is the paper's repetition count per (setting, task) cell.
const gridRuns = 3

// grid is the closed-loop evaluation-grid workload: all 8 settings × 39
// tasks × 3 runs, dispatched as 312 cells over a LocalDispatcher at
// concurrency nproc, repeated for several passes on warm models.
type grid struct {
	e      *env
	models *agent.Models
	ref    []byte // the sequential in-process report, rendered
}

// setupGrid builds warm catalog models n times, each into a fresh store, and
// keeps the last; it returns every build's seconds.
func setupGrid(e *env, n int) (*grid, []float64, error) {
	g := &grid{e: e}
	var setups []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		models, err := agent.BuildModelsIn(modelstore.New(), e.nproc)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		g.models = models
	}
	// The sequential report is the byte oracle; computing it first also
	// warms the session path before anything is timed.
	ref, err := bench.RunDispatchedIn(context.Background(), e.reg, bench.NewLocalDispatcherIn(e.reg, g.models, 1), gridRuns, 1)
	if err != nil {
		return nil, nil, err
	}
	g.ref = render(ref, g.models)
	return g, setups, nil
}

// render is every figure the report prints: Table 3, Figure 5, Figure 6, the
// one-shot statistic and the token accounting.
func render(rep *bench.Report, models *agent.Models) []byte {
	var b bytes.Buffer
	rep.WriteTable3(&b)
	rep.WriteFig5(&b)
	rep.WriteFig6(&b)
	rep.WriteOneShot(&b)
	rep.WriteTokens(&b, models)
	return b.Bytes()
}

// timedDispatcher wraps a dispatcher and times every Dispatch call: the cell
// latency, and under a tracer a bench.dispatch span.
type timedDispatcher struct {
	inner  bench.Dispatcher
	tr     *tracer
	parent int

	mu  sync.Mutex
	lat []float64
}

func (t *timedDispatcher) Dispatch(ctx context.Context, cell bench.Cell) ([]agent.Outcome, error) {
	t0 := time.Now()
	out, err := t.inner.Dispatch(ctx, cell)
	t1 := time.Now()
	t.tr.record("bench.dispatch", cell.Setting+"/"+cell.Task, t.parent, t0, t1)
	t.mu.Lock()
	t.lat = append(t.lat, latency(t1.Sub(t0), err))
	t.mu.Unlock()
	return out, err
}

// gridFigures is what a series of timed passes measured.
type gridFigures struct {
	rates    []float64 // sessions per second, one per pass
	p50s     []float64 // cell-latency p50 in ms, one per pass
	cells    dist      // cell latency over every pass, ms
	sessions int
	ops      tally // cells
	mismatch int   // passes whose report differed from the oracle
	last     *bench.Report
}

// passes runs timed grid passes until dur has elapsed and at least
// minPasses are done, marking rss (when not nil) after each. Under a tracer
// each pass is a grid.pass span whose cells are its bench.dispatch children.
func (g *grid) passes(ctx context.Context, dur time.Duration, minPasses int, tr *tracer, rss *rssSampler) (gridFigures, error) {
	var f gridFigures
	var lat []float64
	per := len(g.e.reg.Tasks()) * len(bench.Matrix()) * gridRuns
	begin := time.Now()
	for len(f.rates) < minPasses || time.Since(begin) < dur {
		span := tr.begin("grid.pass", fmt.Sprint(len(f.rates)), 0)
		td := &timedDispatcher{inner: bench.NewLocalDispatcherIn(g.e.reg, g.models, 1), tr: tr, parent: span}
		t0 := time.Now()
		rep, err := bench.RunDispatchedIn(ctx, g.e.reg, td, gridRuns, g.e.nproc)
		took := time.Since(t0)
		tr.end(span)
		lat = append(lat, td.lat...)
		f.ops.attempted += len(td.lat)
		if err != nil {
			f.ops.failed++
			return f, fmt.Errorf("grid pass: %w", err)
		}
		f.rates = append(f.rates, float64(per)/took.Seconds())
		f.p50s = append(f.p50s, newDist(td.lat).median())
		f.sessions += per
		if !bytes.Equal(render(rep, g.models), g.ref) {
			f.mismatch++
		}
		f.last = rep
		if rss != nil {
			rss.mark(true)
		}
	}
	f.cells = newDist(lat)
	return f, nil
}

// runGrid is the untraced grid workload.
func runGrid(ctx context.Context, e *env, r *result) error {
	g, setups, err := setupGrid(e, setupRepeats)
	if err != nil {
		return err
	}
	rss := sampleRSS("self")
	defer rss.close()
	rss.mark(false)
	f, err := g.passes(ctx, time.Duration(e.seconds*float64(time.Second)), 4, nil, rss)
	r.ops.add(f.ops)
	if err != nil {
		return err
	}
	peaks, err := rss.close()
	if err != nil {
		return err
	}
	r.gate(f.mismatch == 0, "grid: %d of %d concurrent reports render the sequential report's bytes",
		len(f.rates)-f.mismatch, len(f.rates))
	tail, q := f.cells.tail()
	r.note("cell_p99_ms", tail, "ms", fmt.Sprintf("cell latency p%g (n=%d)", q, f.cells.n()))
	r.metric("setup_s", medianOf(setups), "s", "cold catalog build; "+repeated(setups, "builds"))
	r.metric("peak_rss_mb", medianOf(peaks), "MiB", "benchmark process resident set, peak per pass; "+repeated(peaks, "passes"))
	r.metric("ops_per_s", medianOf(f.rates), "1/s", fmt.Sprintf("sessions_per_s over passes of %d sessions; %s",
		f.sessions/len(f.rates), repeated(f.rates, "passes")))
	r.metric("op_p50_ms", medianOf(f.p50s), "ms", fmt.Sprintf("cell latency p50 per pass of %d cells; %s",
		f.cells.n()/len(f.rates), repeated(f.p50s, "passes")))
	row, _ := f.last.RowFor(agent.GUIDMI, "GPT-5", "Medium")
	simMetrics(r, row)
	return nil
}

// ledgerGrid is the grid's share of the traced ledger: one untraced and one
// traced series of passes on one set-up, then the per-session probe.
func ledgerGrid(ctx context.Context, e *env, r *result, tr *tracer, budget time.Duration) error {
	g, _, err := setupGrid(e, 1)
	if err != nil {
		return err
	}
	plain, err := g.passes(ctx, budget/3, 1, nil, nil)
	r.ops.add(plain.ops)
	if err != nil {
		return err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	traced, err := g.passes(ctx, budget/3, 1, tr, nil)
	runtime.ReadMemStats(&m1)
	r.ops.add(traced.ops)
	if err != nil {
		return err
	}
	r.gate(plain.mismatch+traced.mismatch == 0, "grid: every concurrent report renders the sequential report's bytes")
	untracedRate, tracedRate := medianOf(plain.rates), medianOf(traced.rates)
	r.note("sessions_per_s", untracedRate, "1/s", fmt.Sprintf("untraced; traced %.1f", tracedRate))
	r.layer("trace.overhead_pct.grid", 100*(untracedRate/tracedRate-1), "%")

	d := msDist(tr.durations("bench.dispatch"))
	r.layer("bench.dispatch_ms.p50", d.median(), "ms")
	r.layer("bench.dispatch_ms.p99", d.p(99), "ms")
	r.layer("go.allocs_per_session", float64(m1.Mallocs-m0.Mallocs)/float64(traced.sessions), "allocs")
	r.layer("go.alloc_bytes_per_session", float64(m1.TotalAlloc-m0.TotalAlloc)/float64(traced.sessions), "bytes")
	probeSessions(e, g.models, r, tr, budget/3)
	return nil
}

// ifaceKey names an interface in per-layer metric names.
var ifaceKey = map[agent.Interface]string{agent.GUIOnly: "gui", agent.GUIForest: "forest", agent.GUIDMI: "dmi"}

// probeSessions times single sessions: bench.RunCell(…, 1, 1) for every
// (setting, task) pair as an agent.run span, and Task.Build alone as an
// osworld.env_build span, repeated until budget is spent (at least once).
func probeSessions(e *env, models *agent.Models, r *result, tr *tracer, budget time.Duration) {
	byIface := make(map[string][]time.Duration)
	byApp := make(map[string][]time.Duration)
	build := make(map[string][]time.Duration)
	begin := time.Now()
	for first := true; first || time.Since(begin) < budget; first = false {
		for _, set := range bench.Matrix() {
			for _, task := range e.reg.Tasks() {
				t0 := time.Now()
				bench.RunCell(models, set, task, 1, 1)
				t1 := time.Now()
				tr.record("agent.run", set.Label+"/"+task.ID, 0, t0, t1)
				byIface[ifaceKey[set.Interface]] = append(byIface[ifaceKey[set.Interface]], t1.Sub(t0))
				byApp[task.App] = append(byApp[task.App], t1.Sub(t0))
			}
		}
		for _, task := range e.reg.Tasks() {
			t0 := time.Now()
			task.Build()
			t1 := time.Now()
			tr.record("osworld.env_build", task.ID, 0, t0, t1)
			build[task.App] = append(build[task.App], t1.Sub(t0))
		}
	}
	for _, k := range []string{"gui", "forest", "dmi"} {
		r.layer("agent.run_ms."+k, msDist(byIface[k]).median(), "ms")
	}
	for _, app := range agent.AppNames() {
		r.layer("agent.run_ms."+app, msDist(byApp[app]).median(), "ms")
	}
	for _, app := range agent.AppNames() {
		r.layer("osworld.env_build_ms."+app, msDist(build[app]).median(), "ms")
	}
}
