// Command dmi-bench runs the online evaluation (paper §5.3–§5.6): the
// 39-task benchmark across the interface × model matrix, regenerating
// Table 3, Figure 5a/5b, Figure 6, the one-shot statistic, and the token
// accounting.
//
// Usage:
//
//	dmi-bench [-taskpack FILE] [-runs 3] [-parallel N] [-table3] [-fig5a] [-fig5b] [-fig6] [-oneshot] [-tokens]
//	dmi-bench [-cpuprofile FILE] [-memprofile FILE] ...
//
// With no section flags, everything is printed. -taskpack evaluates a task
// pack loaded from JSON (see internal/taskpack) instead of the compiled-in
// osworld-w grid; the built-in grid loaded from its own exported pack
// produces a byte-identical report. -parallel serves the
// (setting, task, run) grid from a worker pool sharing the warm models; the
// report is byte-identical to the sequential run.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the whole run (the
// heap profile is taken after a final GC, so it shows retained memory, not
// transient garbage). Throughput and per-layer cost are measured by the
// perfbench harness, not by this command.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
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
	parallel := fs.Int("parallel", 1, "online-phase worker-pool size (1 = sequential, 0 = GOMAXPROCS)")
	cpuprofile := fs.String("cpuprofile", "", "write a runtime/pprof CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile (after a final GC) to this file")
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

	reg, err := bench.LoadRegistry(*packFile)
	if err != nil {
		return fmt.Errorf("dmi-bench: %w", err)
	}

	fmt.Fprintf(stderr, "offline phase: modeling the %d-app catalog…\n", len(agent.Factories()))
	models, err := agent.BuildModelsIn(modelstore.New(), 1)
	if err != nil {
		return fmt.Errorf("modeling failed: %w", err)
	}
	fmt.Fprintf(stderr, "online phase: %d settings × %d tasks × %d runs (parallel=%d)…\n",
		len(bench.Matrix()), reg.Len(), *runs, *parallel)
	// The grid goes through the same Dispatcher seam the distributed
	// coordinator uses, bound to the in-process LocalDispatcher — so the
	// single-host path continuously proves the seam behavior-preserving
	// (the report is byte-identical to the sequential run at any
	// concurrency).
	rep, err := bench.RunDispatchedIn(context.Background(), reg, bench.NewLocalDispatcherIn(reg, models, 1), *runs, *parallel)
	if err != nil {
		return fmt.Errorf("online phase: %w", err)
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
