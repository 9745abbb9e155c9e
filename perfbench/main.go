// Command perfbench is the repository's performance ledger: it drives four
// workloads through the program's public packages and a real dmi-serve
// child, checks that every output is correct, and prints end-to-end metrics
// (untraced runs) or per-layer metrics (traced runs) as one JSON line.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload grid|serve|model|rip-fleet --seed N --seconds S --trace 0|1
//
// run.sh builds this package and runs it; `go run .` from this directory
// with -root .. does the same. BENCHMARK.json lists the workloads and
// metrics, and metrics.json says what each metric measures on each workload
// and which end-to-end metric each per-layer metric should move.
//
// BENCHMARK.json gates serve and model. grid, the closed loop over the whole
// evaluation grid, saturates every CPU and so measures how much CPU a shared
// host lends it; rip-fleet is a two-process pipeline of small loopback round
// trips that magnifies every scheduling delay. Both run on request and in
// every traced run, but their figures move too much between runs to hold a
// bound. Tail latencies are printed under the workloads' own names and not
// gated, for the same reason.
//
// An untraced run measures the named workload for S seconds. A traced run
// is the per-layer ledger: it runs all four workloads, each once untraced
// and once traced at a reduced size, records a span at each layer boundary
// from this package's own code around the calls into the program, derives
// the per-layer metrics from the spans, reports the traced-versus-untraced
// difference as tracing overhead, and writes the spans to
// .bench_build/perfbench/trace-seed<N>.jsonl.
//
// The exit status is 0 only when every correctness gate held. The last line
// of standard output is the result:
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":V,"unit":"U"},...}}
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/taskpack"
)

// setupRepeats is how many times an untraced run sets up; it reports the
// median set-up time.
const setupRepeats = 5

// deadline bounds a whole invocation, so a wedged run fails in under three
// minutes instead of hanging.
const deadline = 160 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// workloads maps each workload name to its untraced run, in ledger order.
var workloads = []struct {
	name string
	run  func(ctx context.Context, e *env, r *result) error
}{
	{"grid", runGrid},
	{"serve", runServe},
	{"model", runModel},
	{"rip-fleet", runRipFleet},
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: grid, serve, model or rip-fleet")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced per-layer ledger, 0 = untraced end-to-end run")
	root := fs.String("root", ".", "checkout root (holds the program's go.mod)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var runW func(context.Context, *env, *result) error
	for _, w := range workloads {
		if w.name == *workload {
			runW = w.run
		}
	}
	if runW == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: need --workload grid|serve|model|rip-fleet, --seconds >= 1, --trace 0|1")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()

	e, err := newEnv(*root, *seed, *seconds, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer removeAll(e.work)

	r := newResult(stdout)
	fmt.Fprintf(stdout, "perfbench: workload %s, seed %d, %ds, trace %d; nproc %d, GOMAXPROCS %d, %s\n",
		*workload, *seed, *seconds, *trace, e.nproc, runtime.GOMAXPROCS(0), runtime.Version())
	if *trace == 1 {
		err = runLedger(ctx, e, r)
	} else {
		err = runW(ctx, e, r)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := r.emit(stdout, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// env is what every workload shares: where to build and write, the load
// shape, and the seeded inputs.
type env struct {
	root    string // checkout root
	work    string // per-invocation scratch directory, removed at exit
	nproc   int    // worker pools, in-flight caps and connections
	seconds float64
	seed    int64
	rng     *rand.Rand
	reg     *taskpack.Registry // the built-in tasks, in seed order
	out     io.Writer

	serveBin string // built on first use
}

func newEnv(root string, seed int64, seconds int, out io.Writer) (*env, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	mod, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil || !strings.HasPrefix(string(mod), "module repro\n") {
		return nil, fmt.Errorf("%s is not a checkout of the program (no go.mod for module repro)", abs)
	}
	base := filepath.Join(abs, ".bench_build", "perfbench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	// The seed orders the task pack: the grid dispatches, and the report
	// aggregates, in this order. Pack identity is unchanged.
	builtin := taskpack.Builtin()
	tasks := append(builtin.Tasks()[:0:0], builtin.Tasks()...)
	rng.Shuffle(len(tasks), func(i, j int) { tasks[i], tasks[j] = tasks[j], tasks[i] })
	return &env{
		root:    abs,
		work:    work,
		nproc:   runtime.NumCPU(),
		seconds: float64(seconds),
		seed:    seed,
		rng:     rng,
		reg:     taskpack.NewRegistry(builtin.Name(), builtin.Hash(), tasks),
		out:     out,
	}, nil
}

// serve returns the dmi-serve binary, building it on first use.
func (e *env) serve(ctx context.Context) (string, error) {
	if e.serveBin == "" {
		bin, err := buildServe(ctx, e.root, e.work)
		if err != nil {
			return "", err
		}
		e.serveBin = bin
	}
	return e.serveBin, nil
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates one invocation's figures, counts and gate verdicts.
type result struct {
	out    io.Writer
	ops    tally
	failed []string // failed gates
	e2e    map[string]metric
	layers map[string]metric
	notes  map[string]float64 // figures printed under the workloads' own names
}

func newResult(out io.Writer) *result {
	return &result{out: out, e2e: make(map[string]metric), layers: make(map[string]metric), notes: make(map[string]float64)}
}

// gate records a correctness check; a false ok fails the run.
func (r *result) gate(ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		fmt.Fprintf(r.out, "  gate ok   %s\n", msg)
		return
	}
	fmt.Fprintf(r.out, "  gate FAIL %s\n", msg)
	r.failed = append(r.failed, msg)
}

func (r *result) correct() bool { return len(r.failed) == 0 && r.ops.failed == 0 }

// metric sets an end-to-end figure and prints it with its detail.
func (r *result) metric(name string, value float64, unit, detail string) {
	r.e2e[name] = metric{value, unit}
	fmt.Fprintf(r.out, "  %-22s %14.6g %-6s %s\n", name, value, unit, detail)
}

// layer sets a per-layer figure and prints it.
func (r *result) layer(name string, value float64, unit string) {
	r.layers[name] = metric{value, unit}
	fmt.Fprintf(r.out, "  %-40s %14.6g %s\n", name, value, unit)
}

// note prints a figure under the name the workload's own report uses; it is
// not part of the JSON result.
func (r *result) note(name string, value float64, unit, detail string) {
	r.notes[name] = value
	fmt.Fprintf(r.out, "  %-22s %14.6g %-6s %s\n", name, value, unit, detail)
}

// emit prints the JSON result line: the end-to-end metrics, or the
// per-layer ones for a traced run. A non-finite value (a percentile over
// failed operations) cannot be encoded and is reported as -1; such a run has
// failed operations and is marked incorrect.
func (r *result) emit(w io.Writer, traced bool) error {
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	out := make(map[string]metric, len(ms))
	//dmi:orderinvariant encoding/json sorts map keys
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			m.Value = -1
		}
		out[k] = m
	}
	fmt.Fprintf(w, "perfbench: %d attempted, %d failed (failed_frac %.4g)\n",
		r.ops.attempted, r.ops.failed, r.ops.failedFrac())
	if len(r.failed) > 0 {
		fmt.Fprintf(w, "perfbench: %d correctness gate(s) failed\n", len(r.failed))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.correct(), max(r.ops.attempted, 1), r.ops.failed, out})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

// headline is the Table 3 row the sim_* metrics describe: GUI+DMI / GPT-5 /
// Medium, every task, three runs.
const headline = "GUI+DMI / GPT-5 / Medium"

// simMetrics reports the headline row's simulated-agent figures. The row is
// an exact function of the models (its sums are of integers), so the four
// figures repeat across runs and workloads; they put the paper's clock
// (Table 3, §5.3, §5.4) in the ledger.
func simMetrics(r *result, row bench.Row) {
	r.metric("sim_success_pct", 100*row.SR, "%", "GUI+DMI / GPT-5 / Medium success rate (paper 74.1)")
	r.metric("sim_llm_calls", row.Steps, "calls", "mean LLM calls per successful task (paper 4.61)")
	r.metric("sim_oneshot_pct", 100*row.OneShot, "%", "one-shot share of successful runs (paper >61)")
	r.metric("sim_tokens_per_task", row.Tokens, "tokens", "mean prompt+completion tokens per task")
}

// checkHeadline gates that the headline row's outcomes produced through a
// workload's own path (served, reloaded or fleet-ripped models) equal the
// row run in-process on the reference models, then reports the row.
func checkHeadline(r *result, path string, ref *agent.Models, got []agent.Outcome) error {
	set, _ := bench.SettingByLabel(headline)
	row := bench.RunSetting(ref, set, 3)
	same, err := sameJSON(row.Outcomes, got)
	if err != nil {
		return err
	}
	r.gate(same, "%s: headline row (%d outcomes) equals the in-process row", path, len(got))
	simMetrics(r, row)
	return nil
}

// headlineOutcomes runs the headline row on models, in the task order
// bench.RunSetting uses.
func headlineOutcomes(models *agent.Models) []agent.Outcome {
	set, _ := bench.SettingByLabel(headline)
	return bench.RunSetting(models, set, 3).Outcomes
}

// sameJSON reports whether a and b encode to the same JSON bytes.
func sameJSON(a, b any) (bool, error) {
	x, err := json.Marshal(a)
	if err != nil {
		return false, err
	}
	y, err := json.Marshal(b)
	if err != nil {
		return false, err
	}
	return string(x) == string(y), nil
}

// errGate marks a step whose precondition, a checked output, failed.
var errGate = errors.New("correctness gate failed")
