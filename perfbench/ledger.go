package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"time"

	"repro/internal/agent"
)

// runLedger is the traced run: every workload once untraced and once traced
// at a reduced size, its per-layer metrics derived from the spans, and the
// traced-versus-untraced difference of its headline figure reported as
// trace.overhead_pct.<workload>. The spans are written out at the end.
func runLedger(ctx context.Context, e *env, r *result) error {
	tr := newTracer()
	budget := time.Duration(e.seconds * float64(time.Second))
	steps := []struct {
		name string
		fn   func() error
	}{
		{"grid", func() error { return ledgerGrid(ctx, e, r, tr, budget/2) }},
		{"serve", func() error { return ledgerServe(ctx, e, r, tr, budget/2) }},
		{"model", func() error { return ledgerModel(ctx, e, r, tr) }},
		{"rip-fleet", func() error { return ledgerRipFleet(ctx, e, r, tr) }},
	}
	for _, s := range steps {
		fmt.Fprintf(e.out, "ledger: %s\n", s.name)
		t0 := time.Now()
		if err := s.fn(); err != nil {
			return fmt.Errorf("ledger %s: %w", s.name, err)
		}
		fmt.Fprintf(e.out, "ledger: %s done in %.1fs\n", s.name, time.Since(t0).Seconds())
	}
	fmt.Fprintln(e.out, "ledger: predictions next to measurements")
	predictions(e.out, e.nproc, r)
	spans := tr.closed()
	fmt.Fprintln(e.out, "ledger: span totals (self time = duration minus time covered by child spans)")
	writeSummary(e.out, spans)
	path := filepath.Join(filepath.Dir(e.work), fmt.Sprintf("trace-seed%d.jsonl", e.seed))
	if err := writeSpans(path, spans); err != nil {
		return err
	}
	fmt.Fprintf(e.out, "ledger: %d spans written to %s\n", len(spans), path)
	return nil
}

// predictions prints the relations the per-layer figures should satisfy next
// to what the ledger measured. They are for a reader, not gates: each side
// rests on one short run.
func predictions(w io.Writer, nproc int, r *result) {
	v := func(name string) float64 { return r.layers[name].Value }
	run := (v("agent.run_ms.gui") + v("agent.run_ms.forest") + v("agent.run_ms.dmi")) / 3
	fmt.Fprintf(w, "  grid: %.0f sessions/s measured; a CPU-bound closed loop gives nproc / agent.run_ms = %.0f\n",
		r.notes["sessions_per_s"], float64(nproc)*1000/run)
	in, wire := v("serve.inproc_run_ms.p50"), v("serve.wire_overhead_ms.p50")
	fmt.Fprintf(w, "  serve: light p50 %.3f ms measured; in-process run %.3f + wire %.3f = %.3f ms\n",
		r.notes["light_p50_ms"], in, wire, in+wire)
	var rip, cold, snap, dec, tf, desc float64
	for _, app := range agent.AppNames() {
		rip += v("ung.rip_ms." + app)
		cold += v("modelstore.build_ms.cold." + app)
		snap += v("modelstore.build_ms.snapshot." + app)
		dec += v("ung.decode_ms." + app)
		tf += v("forest.transform_ms." + app)
		desc += v("describe.model_ms." + app)
	}
	fmt.Fprintf(w, "  model: rip is %.1f%% of the cold build (%.0f of %.0f ms)\n", 100*rip/cold, rip, cold)
	fmt.Fprintf(w, "  model: reload %.1f ms = decode %.1f + transform %.1f + describe %.1f + read and bookkeeping %.1f\n",
		snap, dec, tf, desc, snap-dec-tf-desc)
	fleet := 1000 * r.notes["fleet_rip_s"]
	fmt.Fprintf(w, "  rip-fleet: fleet rip %.0f ms against a local cold build of %.0f ms: %.0f ms of wire and envelope overhead\n",
		fleet, cold, fleet-cold)
}
