// Command dmi-coord is the distributed-serving coordinator: it feeds the
// full evaluation grid (every Table 3 setting × every catalog task) to
// N dmi-serve replicas, one POST /v1/cells per cell, and aggregates
// the outcomes in grid order — so its report is byte-identical
// to the in-process `dmi-bench` run, no matter which replica served which
// cell or in what order they finished. Sessions are stateless, idempotent
// functions of (model, task, setting, run), so a replica failure mid-run is
// handled by re-dispatching the failed cell to a surviving replica — and a
// replica that comes back is re-probed (half-open /v1/healthz circuit) and
// returned to rotation.
//
// Usage:
//
//	dmi-coord -replicas http://a:8480,http://b:8480 [-taskpack FILE] [-runs 3] [-inflight 4] [-wait 3m]
//	dmi-coord -membership FILE [-soak 10m -rate 20] ...
//
// Exactly one of -replicas (fixed fleet) or -membership (elastic fleet: one
// base URL per line, re-read on SIGHUP so replicas join and leave mid-run)
// selects the fleet. Every cell travels as its own request. Cells
// are fed as fleet capacity frees up (live replicas × -inflight), so
// concurrency follows failures, recoveries, joins, and leaves. -soak
// replaces the single grid pass with a sustained open-loop load (cell
// arrivals on a fixed-rate clock) and ends with a one-line `soak done`
// summary on stderr — latency percentiles, failures and recovery counts —
// the line CI's recovery gate greps. -pprof serves net/http/pprof profiles on a second listener for
// production profiling.
//
// The evaluation report goes to stdout (same sections, same bytes as
// `dmi-bench`); coordination telemetry — per-replica cell counts, retries,
// recoveries, and the aggregate warm-hit ratio scraped from each replica's
// GET /v1/stats — goes to stderr.
//
// The coordinator and every replica must serve the same task pack: cells are
// resolved by task id on both sides, so mismatched packs would silently score
// different task content. The coordinator checks each replica's advertised
// pack identity during the health wait and refuses to dispatch against a
// mismatched replica, naming the replica and both hashes; every cell
// request additionally carries the pack name and hash, which a mismatched
// replica rejects with 409. A replica recovering from a down-mark is held
// out of rotation until its probed pack identity matches again.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof" // -pprof: registers /debug/pprof on the default mux
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
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
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stdout, stderr)
}

// runCtx is run with an explicit lifetime, the seam tests drive.
func runCtx(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmi-coord", flag.ContinueOnError)
	fs.SetOutput(stderr)
	replicasFlag := fs.String("replicas", "", "comma-separated dmi-serve base URLs (exactly one of -replicas / -membership)")
	membershipFile := fs.String("membership", "", "membership file, one dmi-serve base URL per line, re-read on SIGHUP (exactly one of -replicas / -membership)")
	packFile := fs.String("taskpack", "", "task pack JSON to resolve cells from (default: the built-in osworld-w grid); every replica must serve the same pack")
	runs := fs.Int("runs", 3, "seeded repetitions per task (paper: 3)")
	inflight := fs.Int("inflight", 4, "max cells in flight per replica")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	// The default matches RemoteOptions' own: sized to outlast the slowest
	// legitimate cell (max runs on a cold model), comfortably inside
	// dmi-serve's 10-minute write-timeout hang guard — a slow-but-healthy
	// replica must not read as a failure.
	timeout := fs.Duration("timeout", 5*time.Minute, "per-cell request timeout (a hung replica becomes a detected failure, not a stall)")
	wait := fs.Duration("wait", 3*time.Minute, "how long to wait for every replica's /v1/healthz (replicas prewarm the catalog at startup)")
	probe := fs.Duration("probe", time.Second, "base interval between half-open recovery probes of a down-marked replica (negative disables recovery)")
	soak := fs.Duration("soak", 0, "sustained-load soak for this duration instead of one grid pass (open-loop arrivals; see -rate)")
	rate := fs.Float64("rate", 10, "target cell arrival rate per second during -soak")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage was printed, not an error
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dmi-coord: unexpected argument %q\n", fs.Arg(0))
		return errUsage
	}
	if (*replicasFlag == "") == (*membershipFile == "") {
		fmt.Fprintln(stderr, "dmi-coord: exactly one of -replicas or -membership is required")
		return errUsage
	}
	// Fail -runs at flag parse, not after minutes of replica prewarm: every
	// replica would reject the first cell with the same 400, and a soak would
	// report every arrival as failed.
	if *runs < 1 {
		fmt.Fprintf(stderr, "dmi-coord: -runs %d must be at least 1\n", *runs)
		return errUsage
	}
	if *runs > serveproto.MaxRuns {
		fmt.Fprintf(stderr, "dmi-coord: -runs %d exceeds the per-cell cap of %d\n", *runs, serveproto.MaxRuns)
		return errUsage
	}
	if *soak > 0 && *rate <= 0 {
		fmt.Fprintf(stderr, "dmi-coord: -rate %g must be positive with -soak\n", *rate)
		return errUsage
	}
	if *inflight < 1 {
		fmt.Fprintf(stderr, "dmi-coord: -inflight %d must be at least 1\n", *inflight)
		return errUsage
	}
	if *timeout <= 0 {
		// A zero http.Client timeout means none at all: a hung replica
		// would stall the run instead of reading as a failure.
		fmt.Fprintf(stderr, "dmi-coord: -timeout %s must be positive\n", *timeout)
		return errUsage
	}
	var replicas []string
	if *membershipFile != "" {
		var err error
		replicas, err = readMembership(*membershipFile)
		if err != nil {
			return fmt.Errorf("dmi-coord: %w", err)
		}
	} else {
		replicas = strings.Split(*replicasFlag, ",")
	}

	reg, err := bench.LoadRegistry(*packFile)
	if err != nil {
		return fmt.Errorf("dmi-coord: %w", err)
	}
	if *pprofAddr != "" {
		// A second listener, as in dmi-serve: profile scrapes never contend
		// with dispatch traffic. net/http/pprof registered on the default mux.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("dmi-coord: pprof: %w", err)
		}
		defer pln.Close()
		go http.Serve(pln, nil)
		fmt.Fprintf(stderr, "dmi-coord: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}
	rd, err := bench.NewRemoteDispatcher(replicas, bench.RemoteOptions{
		InFlight:      *inflight,
		Client:        &http.Client{Timeout: *timeout},
		Pack:          reg.Name(),
		PackHash:      reg.Hash(),
		ProbeInterval: *probe,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, "dmi-coord: "+format+"\n", args...)
		},
	})
	if err != nil {
		return fmt.Errorf("dmi-coord: %w", err)
	}
	defer rd.Close()
	if *membershipFile != "" {
		// SIGHUP re-reads the membership file and diffs it against the
		// current fleet — added URLs join the rotation, missing ones leave.
		// A reload problem (unreadable file, bad URL) is logged, never
		// fatal: a long-lived run must survive a botched edit.
		hup := make(chan os.Signal, 1)
		signal.Notify(hup, syscall.SIGHUP)
		defer signal.Stop(hup)
		go func() {
			for {
				select {
				case <-ctx.Done():
					return
				case <-hup:
					if err := reloadMembership(rd, *membershipFile, stderr); err != nil {
						fmt.Fprintf(stderr, "dmi-coord: membership reload: %v\n", err)
					}
				}
			}
		}()
	}
	if err := waitHealthy(ctx, rd.Live(), reg, *wait, stderr); err != nil {
		return fmt.Errorf("dmi-coord: %w", err)
	}

	if *soak > 0 {
		return runSoakMode(ctx, rd, reg, *soak, *rate, *runs, stderr)
	}

	cells := bench.GridCellsIn(reg, *runs)
	fmt.Fprintf(stderr, "dmi-coord: dispatching %d cells (%d settings × %d tasks, %d runs each) from pack %s across %d replicas (paced by fleet capacity), ≤%d in flight each…\n",
		len(cells), len(bench.Matrix()), len(cells)/len(bench.Matrix()), *runs, reg.Name(), len(rd.Live()), *inflight)
	start := time.Now()
	rep, err := bench.RunDispatchedIn(ctx, reg, rd, *runs, 0)
	if err != nil {
		var mismatch *bench.PackMismatchError
		if errors.As(err, &mismatch) {
			// A replica passed the health check but answered a cell with
			// 409 — its pack changed out from under the run (e.g. it was
			// restarted with a different -taskpack). Name the replica and
			// both identities so the operator knows exactly what to restart.
			fmt.Fprintf(stderr, "dmi-coord: pack mismatch: %v\n", mismatch)
			fmt.Fprintf(stderr, "dmi-coord: restart that replica with the same -taskpack as this coordinator (pack %s, hash %s), or rerun dmi-coord with the replica's pack\n",
				reg.Name(), reg.Hash())
		}
		return fmt.Errorf("dmi-coord: %w", err)
	}
	elapsed := time.Since(start)

	// Scrape every replica that survived the run. A replica that died
	// mid-run is tolerated — its cells were re-dispatched — but the report's
	// token section comes from these scrapes, so losing every replica
	// between the last cell and here is an error, not a silently wrong
	// report.
	stats := scrapeStats(ctx, rd.Live(), stderr)
	tokens := map[string]int{}
	var agg modelstore.Stats
	var expansions int64
	for _, st := range stats {
		agg.Hits += st.Store.Hits
		agg.Misses += st.Store.Misses
		expansions += st.Expansions
		if len(tokens) == 0 {
			tokens = st.CoreTokens
		}
	}
	if len(tokens) == 0 {
		return errors.New("dmi-coord: no replica /v1/stats reachable after the run; refusing to print a report with an empty token section")
	}
	warmHit := serveproto.HitRatio(agg)

	// The report, byte-identical to dmi-bench's default sections.
	rep.WriteTable3(stdout)
	fmt.Fprintln(stdout)
	rep.WriteFig5(stdout)
	rep.WriteFig6(stdout)
	fmt.Fprintln(stdout)
	rep.WriteOneShot(stdout)
	fmt.Fprintln(stdout)
	rep.WriteTokens(stdout, &agent.Models{CoreTokens: tokens})

	// Coordination telemetry.
	fmt.Fprintf(stderr, "dmi-coord: %d cells in %.2fs (%.1f cells/s), %d re-dispatches, aggregate warm-hit ratio %.3f\n",
		len(cells), elapsed.Seconds(), float64(len(cells))/elapsed.Seconds(), rd.Retries(), warmHit)
	if expansions > 0 {
		// Replicas that also served distributed-rip traffic (dmi-model
		// -replicas) carry the frame ledger in their stats; surface it so an
		// operator can see rip work sharing the fleet with cell serving.
		fmt.Fprintf(stderr, "dmi-coord: replicas additionally expanded %d rip frames\n", expansions)
	}
	writeReplicaLines(stderr, rd)
	return nil
}

// writeReplicaLines prints each replica's share of the run to the telemetry
// stream, including its recovery count and current rotation state.
func writeReplicaLines(stderr io.Writer, rd *bench.RemoteDispatcher) {
	for _, rs := range rd.Stats() {
		state := "live"
		switch {
		case rs.Removed:
			state = "removed"
		case rs.Down:
			state = "down"
		}
		fmt.Fprintf(stderr, "dmi-coord:   %-28s %4d cells, %d failures, %d recoveries, %s\n",
			rs.BaseURL, rs.Cells, rs.Failures, rs.Recoveries, state)
	}
}

// readMembership parses a membership file: one replica base URL per line,
// blank lines and #-comments skipped.
func readMembership(path string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var urls []string
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		urls = append(urls, line)
	}
	if len(urls) == 0 {
		return nil, fmt.Errorf("%s: no replica URLs", path)
	}
	return urls, nil
}

// reloadMembership re-reads the membership file and diffs it against the
// dispatcher's current fleet: URLs no longer listed are removed from
// rotation, newly listed ones are added. Per-replica problems (a malformed
// URL, an already-removed entry) are logged and skipped so one bad line
// cannot take down the reload.
func reloadMembership(rd *bench.RemoteDispatcher, path string, stderr io.Writer) error {
	urls, err := readMembership(path)
	if err != nil {
		return err
	}
	want := make(map[string]bool, len(urls))
	var normalized []string
	for _, raw := range urls {
		base, err := bench.NormalizeReplicaURL(raw)
		if err != nil {
			fmt.Fprintf(stderr, "dmi-coord: membership: %v\n", err)
			continue
		}
		if !want[base] {
			want[base] = true
			normalized = append(normalized, base)
		}
	}
	if len(normalized) == 0 {
		return fmt.Errorf("%s: no valid replica URLs", path)
	}
	have := make(map[string]bool)
	for _, base := range rd.Members() {
		have[base] = true
		if !want[base] {
			if err := rd.RemoveReplica(base); err != nil {
				fmt.Fprintf(stderr, "dmi-coord: membership: %v\n", err)
			}
		}
	}
	for _, base := range normalized {
		if !have[base] {
			if err := rd.AddReplica(base); err != nil {
				fmt.Fprintf(stderr, "dmi-coord: membership: %v\n", err)
			}
		}
	}
	return nil
}

// waitHealthy polls every replica's /v1/healthz until it answers ready or the
// wait budget runs out, then checks the replica's advertised pack identity
// against the run's registry — a healthy replica that does not advertise
// exactly the run's pack is a configuration error worth failing on before
// any cell is dispatched, with the replica and both hashes named. Replicas
// prewarm the whole catalog before listening, so this is where the
// coordinator absorbs replica startup. The budget is shared across replicas
// and carried by a context deadline, so a parent cancellation (^C) is
// distinguishable from the budget running out, and the ticker keeps probes
// on a fixed cadence instead of drifting by probe latency the way
// sleep-after-probe loops do.
func waitHealthy(ctx context.Context, replicas []string, reg *taskpack.Registry, wait time.Duration, stderr io.Writer) error {
	ctx, cancel := context.WithTimeout(ctx, wait)
	defer cancel()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for _, base := range replicas {
		hz, err := bench.ProbeHealthz(ctx, probeClient, base)
		for err != nil {
			select {
			case <-ctx.Done():
				if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.DeadlineExceeded) {
					return cause // parent canceled; not a health verdict
				}
				return fmt.Errorf("replica %s not healthy after %s (last probe: %v)", base, wait, err)
			case <-tick.C:
			}
			hz, err = bench.ProbeHealthz(ctx, probeClient, base)
		}
		if hz.Pack != reg.Name() || hz.PackHash != reg.Hash() {
			return fmt.Errorf("replica %s serves task pack %s (hash %.12s), this run needs %s (hash %.12s); restart it with the coordinator's -taskpack",
				base, hz.Pack, hz.PackHash, reg.Name(), reg.Hash())
		}
		fmt.Fprintf(stderr, "dmi-coord: replica %s is ready\n", base)
	}
	return nil
}

// probeClient bounds a single health probe or stats scrape so one hanging
// connection cannot eat the whole -wait budget (waitHealthy only checks its
// deadline between probes).
var probeClient = &http.Client{Timeout: 5 * time.Second}

// scrapeStats fetches GET /v1/stats from each replica, skipping
// unreachable ones with a note.
func scrapeStats(ctx context.Context, replicas []string, stderr io.Writer) []serveproto.StatsResponse {
	var out []serveproto.StatsResponse
	for _, base := range replicas {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+serveproto.PathStats, nil)
		if err != nil {
			continue
		}
		resp, err := probeClient.Do(req)
		if err != nil {
			fmt.Fprintf(stderr, "dmi-coord: stats scrape failed for %s: %v\n", base, err)
			continue
		}
		var st serveproto.StatsResponse
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d", resp.StatusCode)
		} else {
			err = json.NewDecoder(resp.Body).Decode(&st)
		}
		resp.Body.Close()
		if err != nil {
			fmt.Fprintf(stderr, "dmi-coord: stats scrape failed for %s: %v\n", base, err)
			continue
		}
		out = append(out, st)
	}
	return out
}
