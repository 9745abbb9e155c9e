// Command dmi-bench runs the online evaluation (paper §5.3–§5.6): the
// 39-task benchmark across the interface × model matrix, regenerating
// Table 3, Figure 5a/5b, Figure 6, the one-shot statistic, and the token
// accounting.
//
// Usage:
//
//	dmi-bench [-taskpack FILE] [-runs 3] [-parallel N] [-json FILE] [-table3] [-fig5a] [-fig5b] [-fig6] [-oneshot] [-tokens]
//	dmi-bench [-cpuprofile FILE] [-memprofile FILE] [-hotpath FILE] ...
//
// With no section flags, everything is printed. -taskpack evaluates a task
// pack loaded from JSON (see internal/taskpack) instead of the compiled-in
// osworld-w grid; the built-in grid loaded from its own exported pack
// produces a byte-identical report. -parallel serves the
// (setting, task, run) grid from a worker pool sharing the warm models; the
// report is byte-identical to the sequential run. -json additionally writes
// a machine-readable throughput baseline (sessions/sec, warm-hit ratio) for
// CI perf tracking.
//
// The profiling flags drive the hot-path work: -cpuprofile/-memprofile write
// runtime/pprof profiles of the whole run (the heap profile is taken after a
// final GC, so it shows retained memory, not transient garbage), and
// -hotpath writes the snapshot-codec size record — per-app and total graph
// bytes under the binary codec versus JSON — that CI composes into
// BENCH_delta.json and gates on.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/taskpack"
	"repro/internal/ung"
)

// errUsage marks a flag-parse failure the FlagSet has already reported to
// stderr; main must not print it again.
var errUsage = errors.New("invalid usage")

func main() {
	switch err := run(os.Args[1:], os.Stdout, os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the CLI against the given argument list and streams; main is
// a thin exit-code shim around it so tests can drive the binary in-process.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmi-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	packFile := fs.String("taskpack", "", "task pack JSON to evaluate (default: the built-in osworld-w grid)")
	runs := fs.Int("runs", 3, "seeded repetitions per task (paper: 3)")
	table3 := fs.Bool("table3", false, "print Table 3")
	fig5a := fs.Bool("fig5a", false, "print Figure 5a")
	fig5b := fs.Bool("fig5b", false, "print Figure 5b")
	fig6 := fs.Bool("fig6", false, "print Figure 6")
	oneshot := fs.Bool("oneshot", false, "print the §5.3 one-shot statistic")
	tokens := fs.Bool("tokens", false, "print §5.4 token accounting")
	workers := fs.Int("workers", 0, "rip worker-pool size for the offline phase (0 = auto)")
	parallel := fs.Int("parallel", 1, "online-phase worker-pool size (1 = sequential, 0 = GOMAXPROCS)")
	jsonOut := fs.String("json", "", "write a machine-readable baseline (sessions/sec, warm-hit ratio) to this file")
	cpuprofile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
	hotpath := fs.String("hotpath", "", "write the snapshot-codec size record (binary vs JSON bytes per app) to this JSON file")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage was printed, not an error
		}
		return errUsage
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fmt.Errorf("dmi-bench: cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("dmi-bench: cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	all := !*table3 && !*fig5a && !*fig5b && !*fig6 && !*oneshot && !*tokens

	reg, err := loadRegistry(*packFile)
	if err != nil {
		return fmt.Errorf("dmi-bench: %w", err)
	}

	fmt.Fprintf(stderr, "offline phase: modeling the %d-app catalog…\n", len(agent.Factories()))
	models, err := agent.BuildModelsParallel(*workers)
	if err != nil {
		return fmt.Errorf("modeling failed: %w", err)
	}
	fmt.Fprintf(stderr, "online phase: %d settings × %d tasks × %d runs (parallel=%d)…\n",
		len(bench.Matrix()), reg.Len(), *runs, *parallel)
	start := time.Now()
	// The grid goes through the same Dispatcher seam the distributed
	// coordinator uses, bound to the in-process LocalDispatcher — so the
	// single-host path continuously proves the seam behavior-preserving
	// (the report is byte-identical to the sequential run at any
	// concurrency).
	rep, err := bench.RunDispatchedIn(context.Background(), reg, bench.NewLocalDispatcherIn(reg, models, 1), *runs, *parallel)
	if err != nil {
		return fmt.Errorf("online phase: %w", err)
	}
	elapsed := time.Since(start)

	if *jsonOut != "" {
		if err := writeBaseline(*jsonOut, reg, *runs, *parallel, elapsed); err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		fmt.Fprintf(stderr, "baseline written to %s\n", *jsonOut)
	}
	if *hotpath != "" {
		if err := writeHotpath(*hotpath); err != nil {
			return fmt.Errorf("hotpath: %w", err)
		}
		fmt.Fprintf(stderr, "hot-path size record written to %s\n", *hotpath)
	}

	w := stdout
	if all || *table3 {
		rep.WriteTable3(w)
		fmt.Fprintln(w)
	}
	if all || *fig5a || *fig5b {
		rep.WriteFig5(w)
	}
	if all || *fig6 {
		rep.WriteFig6(w)
		fmt.Fprintln(w)
	}
	if all || *oneshot {
		rep.WriteOneShot(w)
		fmt.Fprintln(w)
	}
	if all || *tokens {
		rep.WriteTokens(w, models)
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fmt.Errorf("dmi-bench: memprofile: %w", err)
		}
	}
	return nil
}

// writeHeapProfile snapshots the heap after a final GC, so the profile shows
// what the run retains (the warm models, the store's resident set), not the
// transient garbage of the last sessions.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// hotpathApp is one application's share of the snapshot-codec size record.
type hotpathApp struct {
	App         string `json:"app"`
	Nodes       int    `json:"nodes"`
	BinaryBytes int    `json:"binary_bytes"`
	JSONBytes   int    `json:"json_bytes"`
}

// hotpathRecord is the -hotpath output: every catalog graph encoded under
// both snapshot codecs, with the totals CI's bench-delta gate compares
// (binary must stay well under JSON — see .github/workflows/ci.yml).
type hotpathRecord struct {
	Apps        []hotpathApp `json:"apps"`
	BinaryBytes int64        `json:"binary_bytes"`
	JSONBytes   int64        `json:"json_bytes"`
	BinaryRatio float64      `json:"binary_ratio"`
}

// writeHotpath encodes every catalog application's ripped graph under both
// snapshot codecs and records the sizes. The graphs come from the shared
// store the online phase already warmed, so this costs two encodes per app,
// never a re-rip.
func writeHotpath(path string) error {
	factories := agent.Factories()
	apps := make([]string, 0, len(factories))
	//dmi:orderinvariant collected app names are sorted before use
	for app := range factories {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	rec := hotpathRecord{Apps: make([]hotpathApp, 0, len(apps))}
	for _, app := range apps {
		b, err := agent.SharedStore().Build(app, factories[app], modelstore.Options{})
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		bin, err := ung.EncodeBinary(b.Graph)
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		js, err := ung.Encode(b.Graph)
		if err != nil {
			return fmt.Errorf("%s: %w", app, err)
		}
		rec.Apps = append(rec.Apps, hotpathApp{
			App: app, Nodes: len(b.Graph.Order), BinaryBytes: len(bin), JSONBytes: len(js),
		})
		rec.BinaryBytes += int64(len(bin))
		rec.JSONBytes += int64(len(js))
	}
	if rec.JSONBytes > 0 {
		rec.BinaryRatio = float64(rec.BinaryBytes) / float64(rec.JSONBytes)
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// baseline is the machine-readable perf record CI uploads per run
// (BENCH_serve.json): online-phase throughput plus the shared model store's
// warm-serving counters. Wall-clock fields vary per host; the structure is
// what downstream trend tooling keys on.
type baseline struct {
	Settings          int              `json:"settings"`
	Tasks             int              `json:"tasks"`
	Runs              int              `json:"runs"`
	Parallel          int              `json:"parallel"`
	Sessions          int              `json:"sessions"`
	ElapsedSeconds    float64          `json:"elapsed_seconds"`
	SessionsPerSecond float64          `json:"sessions_per_second"`
	Store             modelstore.Stats `json:"store"`
	WarmHitRatio      float64          `json:"warm_hit_ratio"`
}

// loadRegistry resolves the -taskpack flag to a task registry: the built-in
// grid when the flag is empty, otherwise a validated pack loaded from the
// file. Reading the file here keeps internal/taskpack pure ([]byte in, never
// the filesystem).
func loadRegistry(path string) (*taskpack.Registry, error) {
	if path == "" {
		return taskpack.Builtin(), nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	reg, err := taskpack.Load(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return reg, nil
}

func writeBaseline(path string, reg *taskpack.Registry, runs, parallel int, elapsed time.Duration) error {
	settings, tasks := len(bench.Matrix()), reg.Len()
	// Account one warm-model fetch per session start — exactly the store
	// traffic the serving daemon generates per single-run cell. The offline
	// builds are the only misses, so the warm-hit ratio measures the
	// serving property itself (one modeling pass amortized over the whole
	// grid) instead of sitting at a constant.
	for i := 0; i < settings; i++ {
		for _, task := range reg.Tasks() {
			for r := 0; r < runs; r++ {
				if _, err := agent.ModelsFor(agent.SharedStore(), task.App, 0); err != nil {
					return err
				}
			}
		}
	}
	b := baseline{
		Settings: settings,
		Tasks:    tasks,
		Runs:     runs,
		Parallel: parallel,
		Sessions: settings * tasks * runs,
		Store:    agent.StoreStats(),
	}
	b.ElapsedSeconds = elapsed.Seconds()
	if b.ElapsedSeconds > 0 {
		b.SessionsPerSecond = float64(b.Sessions) / b.ElapsedSeconds
	}
	if lookups := b.Store.Hits + b.Store.Misses; lookups > 0 {
		b.WarmHitRatio = float64(b.Store.Hits) / float64(lookups)
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
