// Command dmi-model runs the offline phase (paper §3.2, §4.1, §5.2): it
// rips each simulated application into a UI Navigation Graph, transforms
// the graph into a path-unambiguous forest, and reports modeling cost,
// topology statistics, and the Figure 4 graph→tree→forest comparison.
//
// Modeling goes through the model store, which rips each app sequentially
// on one instance: -workers sets the width of the virtual schedule the
// model-time column is computed on (paper §5.2's modeling clock with that
// many machines expanding frames; the graph is the same at any width), and
// -snapshot persists the ripped graphs and their models (compact binary
// .ungb files) so later runs read the models back with zero rip clicks and
// no transform; a run with another -threshold reads the graphs alone and
// transforms them, leaving the files as they are.
//
// -replicas shards the rip across a fleet of dmi-serve replicas instead:
// each frame expansion ships over POST /v1/rip and the coordinator merges
// the results into the same byte-identical graph (see ung.RipDispatched
// and bench.RemoteExpander). A replica that dies mid-rip is down-marked
// and its frames re-dispatched, so the run survives failures without
// changing a byte of the output.
//
// -cpuprofile/-memprofile write runtime/pprof profiles of the whole run
// (the heap profile is taken after a final GC, so it shows retained memory,
// not transient garbage).
//
// Usage:
//
//	dmi-model [-app Word|Excel|PowerPoint|Settings|Files|all] [-threshold 64]
//	          [-sweep] [-workers 4] [-snapshot DIR]
//	          [-replicas URL,URL,...] [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/modelstore"
	"repro/internal/ung"
)

// ripBatch is the frame-coalescing factor for distributed rips: enough to
// amortize the HTTP round trip over a useful chunk of the DFS stack without
// letting one envelope pin a replica for long.
const ripBatch = 8

// replicaWait bounds how long -replicas waits for every replica's /v1/healthz
// to report ready before the run starts. A variable so tests can shorten
// the not-ready path.
var replicaWait = 60 * time.Second

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
	fs := flag.NewFlagSet("dmi-model", flag.ContinueOnError)
	fs.SetOutput(stderr)
	app := fs.String("app", "all", "application to model (Word, Excel, PowerPoint, Settings, Files, all)")
	threshold := fs.Int("threshold", 64, "clone-cost threshold for selective externalization")
	sweep := fs.Bool("sweep", false, "sweep externalization thresholds (design-choice ablation)")
	workers := fs.Int("workers", 4, "width of the virtual modeling schedule behind model-time (the rip itself is sequential)")
	snapshot := fs.String("snapshot", "", "directory for graph snapshots (reused across runs)")
	replicas := fs.String("replicas", "", "comma-separated dmi-serve base URLs to shard the rip across (empty = rip in process)")
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
			return fmt.Errorf("dmi-model: cpuprofile: %w", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fmt.Errorf("dmi-model: cpuprofile: %w", err)
		}
		defer pprof.StopCPUProfile()
	}

	names := agent.AppNames()
	if *app != "all" {
		names = []string{*app}
	}
	bs := agent.Factories()

	store := modelstore.New()
	if *snapshot != "" {
		store = modelstore.NewPersistent(*snapshot)
	}
	opt := modelstore.Options{
		Transform: forest.Options{CloneThreshold: *threshold},
		Workers:   *workers,
	}
	var fleet []string
	if *replicas != "" {
		for _, u := range strings.Split(*replicas, ",") {
			if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
				fleet = append(fleet, u)
			}
		}
		if len(fleet) == 0 {
			fmt.Fprintln(stderr, "dmi-model: -replicas names no URLs")
			return errUsage
		}
		if err := waitReplicas(fleet, stderr); err != nil {
			return fmt.Errorf("dmi-model: %w", err)
		}
		opt.NewExpander = func(app string) (ung.Expander, error) {
			return bench.NewRemoteExpander(fleet, app, bench.RemoteOptions{
				Batch: ripBatch,
				Logf: func(format string, args ...any) {
					fmt.Fprintf(stderr, "dmi-model: "+format+"\n", args...)
				},
			})
		}
	}

	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "app\tnodes\tedges\tdepth\tmerges\tback-edges\tnaive-tree\tforest\tshared\tcore-controls\tcore-tokens\tmodel-time\tblocklist\tsource")
	for _, name := range names {
		build, ok := bs[name]
		if !ok {
			return fmt.Errorf("unknown app %q", name)
		}
		b, err := store.Build(name, build, opt)
		if err != nil {
			return fmt.Errorf("modeling failed: %w", err)
		}
		if b.SnapshotErr != nil {
			fmt.Fprintln(stderr, "warning: model built but not persisted:", b.SnapshotErr)
		}
		g, fstats := b.Graph, b.TransformStats
		core := b.Model.Serialize(describe.CoreOptions())
		naive := fmt.Sprint(fstats.NaiveTreeNodes)
		if fstats.NaiveTreeNodes == math.MaxInt64 {
			naive = "overflow"
		}
		modelTime := b.RipStats.SimulatedTime.Round(1e9).String()
		source := fmt.Sprintf("rip(%d workers)", b.RipStats.Workers)
		if len(fleet) > 0 {
			source = fmt.Sprintf("rip(%d replicas)", len(fleet))
		}
		if b.FromSnapshot {
			modelTime = "0s"
			source = "snapshot"
		}
		// The blocklist is app metadata, not part of the graph, so it is
		// read off a fresh instance (construction only, never ripped).
		blocklist := build().BlocklistSize()
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\t%d\t%s\t%d\t%d\t%d\t%d\t%s\t%d\t%s\n",
			name, g.NodeCount(), g.EdgeCount(), g.MaxDepth(), len(g.MergeNodes()),
			fstats.BackEdgesRemoved, naive, fstats.ForestNodes, fstats.SharedSubtrees,
			describe.ControlsIn(core), describe.Tokens(core),
			modelTime, blocklist, source)

		if *sweep {
			tw.Flush()
			fmt.Fprintln(stdout, "\n  threshold sweep (Figure 4 trade-off):")
			for _, th := range []int{1, 8, 32, 64, 128, 512, 4096} {
				_, s, err := forest.Transform(g, forest.Options{CloneThreshold: th})
				if err != nil {
					continue
				}
				fmt.Fprintf(stdout, "    threshold %5d: forest %6d nodes, %3d shared subtrees, %4d cloned merges\n",
					th, s.ForestNodes, s.SharedSubtrees, s.Cloned)
			}
			fmt.Fprintln(stdout)
		}
	}
	tw.Flush()

	if *snapshot != "" {
		fmt.Fprintf(stdout, "\nsnapshots in %s: later runs reload these models with zero rip clicks.\n", *snapshot)
	}
	fmt.Fprintln(stdout, "\nFigure 4: the naive full-clone tree explodes with merge-heavy graphs while")
	fmt.Fprintln(stdout, "the forest stays linear; see the naive-tree vs forest columns above and the")
	fmt.Fprintln(stdout, "synthetic diamond-chain benchmark (BenchmarkFig4_TopologyTransform).")

	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return fmt.Errorf("dmi-model: memprofile: %w", err)
		}
	}
	return nil
}

// waitReplicas polls every replica's /v1/healthz until it reports ready,
// so a rip never starts against a fleet that is still prewarming (or one
// without the /v1 surface, which fails the probe with 404).
func waitReplicas(urls []string, stderr io.Writer) error {
	client := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(replicaWait)
	for _, u := range urls {
		for {
			hz, err := bench.ProbeHealthz(context.Background(), client, u)
			if err == nil {
				fmt.Fprintf(stderr, "dmi-model: replica %s ready (%d apps)\n", u, hz.Apps)
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("replica %s not ready after %s: %w", u, replicaWait, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// writeHeapProfile snapshots retained memory after a final GC.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}
