package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/agent"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/modelstore"
	"repro/internal/ung"
)

// reloadsPerRound is how many restarts read back each cold build's
// snapshots: a restart costs a few percent of a cold build, so several per
// round give the reload figures enough samples.
const reloadsPerRound = 10

// catalogBuild builds every catalog app through agent.ModelsFor into store,
// in the given order, and returns the wall-clock time. Under a tracer each
// app's build is a span named name.
func catalogBuild(store *modelstore.Store, apps []string, workers int, tr *tracer, name string) (time.Duration, error) {
	// Every timed build starts from a collected heap, so the garbage of the
	// build before it does not decide when its collections run.
	runtime.GC()
	t0 := time.Now()
	for _, app := range apps {
		a0 := time.Now()
		if _, err := agent.ModelsFor(store, app, workers); err != nil {
			return 0, err
		}
		tr.record(name, app, 0, a0, time.Now())
	}
	return time.Since(t0), nil
}

// encodeGraphs re-fetches every app's build from store (a cache hit) and
// encodes its graph with ung.EncodeBinary: the byte form two builds are
// compared in.
func encodeGraphs(store *modelstore.Store, workers int) (map[string][]byte, error) {
	out := make(map[string][]byte)
	for _, app := range agent.AppNames() {
		b, err := store.Build(app, agent.Factories()[app], modelstore.Options{Workers: workers})
		if err != nil {
			return nil, err
		}
		if !b.CacheHit {
			return nil, fmt.Errorf("%s was not resident after its build: %w", app, errGate)
		}
		data, err := ung.EncodeBinary(b.Graph)
		if err != nil {
			return nil, err
		}
		out[app] = data
	}
	return out, nil
}

// sameGraphs counts the apps whose encoded graphs differ.
func sameGraphs(want, got map[string][]byte) int {
	bad := 0
	for _, app := range agent.AppNames() {
		if !bytes.Equal(want[app], got[app]) {
			bad++
		}
	}
	return bad
}

// shuffledApps returns the catalog in seed order.
func shuffledApps(e *env) []string {
	apps := agent.AppNames()
	e.rng.Shuffle(len(apps), func(i, j int) { apps[i], apps[j] = apps[j], apps[i] })
	return apps
}

// modelRound is one cold build into a fresh snapshot directory followed by
// restarts that rebuild the catalog from its snapshots.
type modelRound struct {
	cold    time.Duration
	reloads []time.Duration
	coldSt  *modelstore.Store // the cold store, for the checks
	warmSt  *modelstore.Store // the last restarted store
	bad     int               // gate failures
}

func runRound(e *env, dir string, reloads int, tr *tracer) (modelRound, error) {
	var mr modelRound
	apps := shuffledApps(e)
	mr.coldSt = modelstore.NewPersistent(dir)
	var err error
	if mr.cold, err = catalogBuild(mr.coldSt, apps, e.nproc, tr, "modelstore.build.cold"); err != nil {
		return mr, err
	}
	if st := mr.coldSt.Stats(); st.Misses != 5 || st.SnapshotLoads != 0 {
		mr.bad++
	}
	for k := 0; k < reloads; k++ {
		mr.warmSt = modelstore.NewPersistent(dir)
		took, err := catalogBuild(mr.warmSt, apps, e.nproc, tr, "modelstore.build.snapshot")
		if err != nil {
			return mr, err
		}
		mr.reloads = append(mr.reloads, took)
		if st := mr.warmSt.Stats(); st.SnapshotLoads != 5 {
			mr.bad++
		}
	}
	return mr, nil
}

// checkRound gates a round's reloaded graphs (and, through ref, its cold
// graphs) byte-equal to the first round's cold graphs. It returns the cold
// graphs when ref is nil, so the first round becomes the reference.
func checkRound(mr modelRound, workers int, ref map[string][]byte) (map[string][]byte, int, error) {
	cold, err := encodeGraphs(mr.coldSt, workers)
	if err != nil {
		return nil, 0, err
	}
	warm, err := encodeGraphs(mr.warmSt, workers)
	if err != nil {
		return nil, 0, err
	}
	if ref == nil {
		ref = cold
	}
	return ref, mr.bad + sameGraphs(ref, cold) + sameGraphs(ref, warm), nil
}

// runModel is the untraced model workload: rounds of a cold catalog build
// and ten restarts from its snapshots.
func runModel(ctx context.Context, e *env, r *result) error {
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		t0 := time.Now()
		if _, err := os.MkdirTemp(e.work, "setup-"); err != nil {
			return err
		}
		// Warm the process (lazy tables, heap growth) so the first timed
		// round is not the only one paying for it.
		if _, err := agent.BuildModelsIn(modelstore.New(), e.nproc); err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	rss := sampleRSS("self")
	defer rss.close()
	rss.mark(false)
	var coldRates, reloads []float64
	var ref map[string][]byte
	var last modelRound
	bad := 0
	// A round takes about two seconds on a 2-core host. A fixed count keeps
	// the number of restarts, and so the tail percentile, the same in every
	// run.
	rounds := max(2, int(e.seconds/2))
	for round := 0; round < rounds; round++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		dir := filepath.Join(e.work, fmt.Sprintf("snapshots-%d", round))
		mr, err := runRound(e, dir, reloadsPerRound, nil)
		r.ops.attempted += 1 + reloadsPerRound
		if err != nil {
			r.ops.failed++
			return err
		}
		rss.mark(true)
		coldRates = append(coldRates, float64(len(agent.AppNames()))/mr.cold.Seconds())
		for _, d := range mr.reloads {
			reloads = append(reloads, ms(d))
		}
		var nbad int
		if ref, nbad, err = checkRound(mr, e.nproc, ref); err != nil {
			return err
		}
		bad += nbad
		last = mr
		removeAll(dir)
	}
	r.gate(bad == 0, "model: %d rounds: every cold and reloaded graph encodes byte-equal to the first cold build (store counters as expected)", len(coldRates))
	if err := checkStoreHeadline(r, "model reload", last.coldSt, last.warmSt, e.nproc); err != nil {
		return err
	}
	peaks, err := rss.close()
	if err != nil {
		return err
	}
	rl := newDist(reloads)
	tail, q := rl.tail()
	r.note("cold_build_s", float64(len(agent.AppNames()))/medianOf(coldRates), "s", fmt.Sprintf("over %d rounds", len(coldRates)))
	r.note("reload_ms", rl.median(), "ms", fmt.Sprintf("catalog restart from snapshots, p50; p%g %.4g (n=%d)", q, tail, rl.n()))
	r.metric("setup_s", medianOf(setups), "s", "temp dir plus untimed warm-up catalog build; "+repeated(setups, "set-ups"))
	r.metric("peak_rss_mb", medianOf(peaks), "MiB", "benchmark process resident set, peak per round; "+repeated(peaks, "rounds"))
	r.metric("ops_per_s", medianOf(coldRates), "1/s", "apps per second of cold build (5/cold_build_s); "+repeated(coldRates, "rounds"))
	r.metric("op_p50_ms", rl.median(), "ms", "reload_ms")
	return nil
}

// checkStoreHeadline gates the headline row run on got's models against the
// row on ref's models.
func checkStoreHeadline(r *result, path string, ref, got *modelstore.Store, workers int) error {
	refM, err := agent.BuildModelsIn(ref, workers)
	if err != nil {
		return err
	}
	gotM, err := agent.BuildModelsIn(got, workers)
	if err != nil {
		return err
	}
	return checkHeadline(r, path, refM, headlineOutcomes(gotM))
}

// ledgerModel is model's share of the traced ledger: one untraced round,
// then each layer of the offline pipeline called on its own per app, then a
// traced round.
func ledgerModel(ctx context.Context, e *env, r *result, tr *tracer) error {
	plain, err := runRound(e, filepath.Join(e.work, "ledger-plain"), 3, nil)
	r.ops.attempted += 4
	if err != nil {
		r.ops.failed++
		return err
	}
	ref, bad, err := checkRound(plain, e.nproc, nil)
	if err != nil {
		return err
	}
	var layers time.Duration
	for _, app := range agent.AppNames() {
		if err := ctx.Err(); err != nil {
			return err
		}
		took, nbad, err := modelLayers(e, r, tr, app, ref[app])
		if err != nil {
			return err
		}
		layers += took
		bad += nbad
	}
	traced, err := runRound(e, filepath.Join(e.work, "ledger-traced"), 1, tr)
	r.ops.attempted += 2
	if err != nil {
		r.ops.failed++
		return err
	}
	_, nbad, err := checkRound(traced, e.nproc, ref)
	if err != nil {
		return err
	}
	r.gate(bad+nbad == 0, "model: layer-by-layer, cold and reloaded graphs encode byte-equal")

	var builds time.Duration
	for _, app := range agent.AppNames() {
		cold := spanOf(tr, "modelstore.build.cold", app)
		snap := spanOf(tr, "modelstore.build.snapshot", app)
		r.layer("modelstore.build_ms.cold."+app, ms(cold), "ms")
		r.layer("modelstore.build_ms.snapshot."+app, ms(snap), "ms")
		builds += cold + snap
	}
	r.layer("modelstore.overhead_ms", ms(builds-layers), "ms")
	r.note("cold_build_s", plain.cold.Seconds(), "s", fmt.Sprintf("untraced; traced %.3f", traced.cold.Seconds()))
	r.layer("trace.overhead_pct.model", 100*(traced.cold.Seconds()/plain.cold.Seconds()-1), "%")
	return nil
}

// spanOf is the duration of the first span with the given name and key.
func spanOf(tr *tracer, name, key string) time.Duration {
	for _, s := range tr.closed() {
		if s.Name == name && s.Key == key {
			return s.dur()
		}
	}
	return 0
}

// modelLayers calls each stage of one app's offline pipeline on its own,
// each as a child span of a model.app span: the factory, the parallel rip,
// the forest transform, describe (model, core and full text, token counts),
// and the snapshot encode and decode. It reports the per-layer figures and
// returns the time a cold build plus a snapshot build would spend in these
// layers (transform and describe run in both), and the number of graphs
// that did not match ref.
func modelLayers(e *env, r *result, tr *tracer, app string, ref []byte) (time.Duration, int, error) {
	factory := agent.Factories()[app]
	parent := tr.begin("model.app", app, 0)
	defer tr.end(parent)
	step := func(name string, fn func() error) (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		t1 := time.Now()
		tr.record(name, app, parent, t0, t1)
		return t1.Sub(t0), err
	}

	fact, _ := step("appkit.factory", func() error { factory(); return nil })
	var g *ung.Graph
	var st ung.Stats
	rip, err := step("ung.rip", func() (err error) {
		g, st, err = ung.RipParallel(factory, ung.Config{}, e.nproc)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	var f *forest.Forest
	transform, err := step("forest.transform", func() (err error) {
		f, _, err = forest.Transform(g, forest.Options{})
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	desc, _ := step("describe.model", func() error {
		m := describe.NewModel(f)
		describe.Tokens(m.Core())
		describe.Tokens(m.Full())
		return nil
	})
	var data []byte
	enc, err := step("ung.encode", func() (err error) {
		data, err = ung.EncodeBinary(g)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	var back *ung.Graph
	dec, err := step("ung.decode", func() (err error) {
		back, err = ung.DecodeBinary(data)
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	again, err := ung.EncodeBinary(back)
	if err != nil {
		return 0, 0, err
	}
	bad := 0
	if !bytes.Equal(data, ref) || !bytes.Equal(again, ref) {
		bad++
	}
	r.layer("appkit.factory_ms."+app, ms(fact), "ms")
	r.layer("ung.rip_ms."+app, ms(rip), "ms")
	r.layer("ung.rip_clicks."+app, float64(st.Clicks), "clicks")
	r.layer("forest.transform_ms."+app, ms(transform), "ms")
	r.layer("describe.model_ms."+app, ms(desc), "ms")
	r.layer("ung.encode_ms."+app, ms(enc), "ms")
	r.layer("ung.decode_ms."+app, ms(dec), "ms")
	r.layer("ung.snapshot_bytes."+app, float64(len(data)), "bytes")
	return rip + enc + dec + 2*(transform+desc), bad, nil
}
