// Command dmi-serve is the warm-model serving daemon: the online phase as
// a long-lived session service. At startup it pre-warms the application
// catalog through a budgeted model store (per-model cost = encoded snapshot
// bytes, LRU eviction beyond the budget, snapshot files surviving eviction
// so reloads spend zero rip clicks), then serves agent sessions over
// HTTP/JSON through the same bench.RunCell the in-process benchmark uses —
// responses are byte-identical to bench.Run for the same grid cell, which
// is what lets a dmi-coord coordinator shard the evaluation grid across N
// replicas and still aggregate a byte-identical report.
//
// Usage:
//
//	dmi-serve [-addr host:port] [-budget BYTES] [-snapshot DIR]
//	          [-taskpack FILE] [-pprof host:port]
//
// -workers is accepted and ignored: offline builds rip sequentially.
// perfbench's daemon launcher passes it for both workloads that start a
// daemon (serve and rip-fleet), so it stays until perfbench stops passing
// it. A cell's runs are served sequentially; request concurrency comes
// from the HTTP server.
// -taskpack serves a task-pack file (see internal/taskpack) instead of the
// compiled-in grid. Requests that name a different pack are answered 409.
// -pprof serves net/http/pprof profiles on a second listener (never on the
// serving address). -snapshot persists the compact binary snapshots
// (.ungb) of each graph and its model, which a restart or an evicted
// model reloads from without ripping or transforming again.
//
// Endpoints (wire types and paths in internal/serveproto, protocol v1):
//
//	POST /v1/cells    {"app","task","setting","runs"[,"pack","pack_hash"]}
//	                  → the cell's outcomes; one cell per call, failures as HTTP statuses
//	POST /v1/rip      {"app","context","frames":[...]} → per-frame differential captures,
//	                  the worker half of a distributed rip (coordinator: dmi-model -replicas)
//	GET  /v1/stats    store counters (hits, misses, snapshot loads, evictions,
//	                  resident bytes) plus serving totals and warm-hit ratio
//	GET  /v1/healthz  readiness (the catalog prewarm completed) + served pack identity
//
// Any other path is a 404.
//
// On SIGINT or SIGTERM the daemon stops accepting connections, drains
// in-flight cells, and exits 0 — the clean-stop contract the
// coordinator's failure handling is tested against.
package main

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/hex"
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
	"sync"
	"syscall"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// errUsage marks a flag-parse failure the FlagSet has already reported to
// stderr; main must not print it again.
var errUsage = errors.New("invalid usage")

// Server hardening limits. Request bodies are tiny (serveproto caps them at
// 64 KiB), so the read side is tight; the write side must outlast the
// slowest legitimate session — a 100-run cell on a cold model — so it is a
// hang guard, not a latency bound.
const (
	readTimeout       = 30 * time.Second
	readHeaderTimeout = 10 * time.Second
	writeTimeout      = 10 * time.Minute
	idleTimeout       = 2 * time.Minute
)

func main() {
	switch err := run(os.Args[1:], os.Stderr); {
	case err == nil:
	case errors.Is(err, errUsage):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run executes the CLI against the given argument list and error stream
// (the daemon writes nothing to stdout); main is a thin exit-code shim
// around it so tests can drive the binary in-process.
// Shutdown signals (SIGINT/SIGTERM) cancel the serve context.
func run(args []string, stderr io.Writer) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	return runCtx(ctx, args, stderr)
}

// runCtx is run with an explicit lifetime: when ctx is cancelled the daemon
// stops listening, drains in-flight sessions, and returns nil. Tests drive
// graceful shutdown through this seam.
func runCtx(ctx context.Context, args []string, stderr io.Writer) error {
	fs := flag.NewFlagSet("dmi-serve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	addr := fs.String("addr", "127.0.0.1:8480", "listen address")
	budget := fs.Int64("budget", 0, "resident-model budget in encoded-snapshot bytes (0 = unlimited)")
	snapshot := fs.String("snapshot", "", "graph-snapshot directory (evicted models reload from here with zero rip clicks)")
	fs.Int("workers", 0, "ignored: offline builds rip sequentially (accepted while perfbench's daemon launcher passes it)")
	packFile := fs.String("taskpack", "", "task-pack file to serve instead of the compiled-in grid")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = disabled)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage was printed, not an error
		}
		return errUsage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "dmi-serve: unexpected argument %q\n", fs.Arg(0))
		return errUsage
	}
	reg, err := bench.LoadRegistry(*packFile)
	if err != nil {
		return fmt.Errorf("dmi-serve: %w", err)
	}
	if *pprofAddr != "" {
		// The profiler gets its own listener so profile scrapes never
		// contend with session traffic (and the serving port never exposes
		// /debug/pprof). net/http/pprof registered on the default mux.
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("dmi-serve: pprof: %w", err)
		}
		defer pln.Close()
		go http.Serve(pln, nil)
		fmt.Fprintf(stderr, "dmi-serve: pprof on http://%s/debug/pprof/\n", pln.Addr())
	}

	srv, err := newServer(reg, *budget, *snapshot, stderr)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return fmt.Errorf("dmi-serve: %w", err)
	}
	hs := &http.Server{
		Handler:           srv,
		ReadTimeout:       readTimeout,
		ReadHeaderTimeout: readHeaderTimeout,
		WriteTimeout:      writeTimeout,
		IdleTimeout:       idleTimeout,
	}
	fmt.Fprintf(stderr, "dmi-serve: serving task pack %s (hash %.12s), listening on http://%s\n",
		srv.reg.Name(), srv.reg.Hash(), ln.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		// Serve never returns nil; without a shutdown this is a real
		// listener failure.
		return fmt.Errorf("dmi-serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintln(stderr, "dmi-serve: shutting down — draining in-flight cells")
	// Sessions are bounded (serveproto.MaxRuns), but WriteTimeout bounds
	// only the connection's write deadline, not handler execution — so the
	// drain needs its own deadline, sized just over the slowest legitimate
	// session, or a wedged handler would keep a SIGTERMed replica alive
	// until SIGKILL. Hitting the deadline exits non-zero: a failed drain
	// must look like one.
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), writeTimeout+30*time.Second)
	defer cancelDrain()
	if err := hs.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("dmi-serve: shutdown: %w", err)
	}
	// Usually http.ErrServerClosed — but a real accept-loop failure can
	// land in the same instant the signal does, and exiting 0 would mask
	// the crash behind a "clean drain".
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("dmi-serve: %w", err)
	}
	fmt.Fprintln(stderr, "dmi-serve: drained, exiting")
	return nil
}

// server is the daemon state: the budgeted store every session start goes
// through, the task registry cells resolve against, and the serving
// counters.
type server struct {
	store      *modelstore.Store
	reg        *taskpack.Registry
	mux        *http.ServeMux
	instance   string         // random per-process id, reported on /v1/healthz
	coreTokens map[string]int // catalog token accounting, for /v1/stats
	rip        *ripPool       // warm instances for POST /v1/rip

	mu         sync.Mutex
	sessions   int64 // cells served
	runs       int64 // outcomes returned across those cells
	inFlight   int64 // cells currently executing
	expansions int64 // frames expanded for POST /v1/rip
}

// newServer builds the daemon and pre-warms the whole catalog through the
// budgeted store. Under a budget smaller than the catalog the prewarm
// itself evicts (AppNames order, LRU), which is intended: it populates the
// snapshot directory so later reloads are rip-free, and it leaves the most
// recently warmed models resident.
func newServer(reg *taskpack.Registry, budget int64, snapshotDir string, progress io.Writer) (*server, error) {
	s := newBareServer(modelstore.NewBudgeted(snapshotDir, budget), reg)
	for _, app := range agent.AppNames() {
		m, err := agent.ModelsFor(s.store, app, 1)
		if err != nil {
			return nil, fmt.Errorf("dmi-serve: prewarm %s: %w", app, err)
		}
		s.coreTokens[app] = m.CoreTokens[app]
		fmt.Fprintf(progress, "dmi-serve: warmed %s (core topology ≈ %d tokens)\n", app, m.CoreTokens[app])
	}
	st := s.store.Stats()
	fmt.Fprintf(progress, "dmi-serve: prewarm done — %d resident models, %d bytes (budget %d), %d evictions\n",
		st.ResidentModels, st.ResidentBytes, budget, st.Evictions)
	return s, nil
}

// newBareServer wires the handler state without prewarming; request
// validation paths are testable through it without paying for a catalog
// build.
func newBareServer(store *modelstore.Store, reg *taskpack.Registry) *server {
	s := &server{
		store:      store,
		reg:        reg,
		instance:   newInstanceID(),
		coreTokens: make(map[string]int),
		rip:        newRipPool(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc(serveproto.PathCells, s.handleCell)
	mux.HandleFunc(serveproto.PathRip, s.handleRip)
	mux.HandleFunc(serveproto.PathStats, s.handleStats)
	mux.HandleFunc(serveproto.PathHealthz, s.handleHealthz)
	s.mux = mux
	return s
}

func (s *server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleCell is POST /v1/cells, the one cell route: one SessionRequest in,
// one SessionResponse out. Every rejection is the HTTP status itself — 400,
// 404, 413, a 409 pack mismatch, or a 500 model failure.
func (s *server) handleCell(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	req, err := serveproto.DecodeSessionRequest(http.MaxBytesReader(w, r.Body, serveproto.MaxRequestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", serveproto.MaxRequestBytes),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.rejectPackMismatch(w, req.Pack, req.PackHash) {
		return
	}
	resp, status, msg := s.runCellRequest(req)
	if resp == nil {
		http.Error(w, msg, status)
		return
	}
	writeJSON(w, resp)
}

// rejectPackMismatch runs the pack handshake: a request naming a different
// pack (or the same pack at a different content hash) must not run —
// outcomes are pure functions of the task content, so answering from a
// mismatched grid would corrupt the caller's whole report. 409 with both
// identities tells the operator exactly which side to restart.
func (s *server) rejectPackMismatch(w http.ResponseWriter, pack, packHash string) bool {
	if (pack == "" || pack == s.reg.Name()) && (packHash == "" || packHash == s.reg.Hash()) {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusConflict)
	json.NewEncoder(w).Encode(serveproto.PackMismatch{
		WantPack: pack, WantHash: packHash,
		HavePack: s.reg.Name(), HaveHash: s.reg.Hash(),
	})
	return true
}

// runCellRequest validates and executes the cell of a POST /v1/cells. On
// success the response is non-nil; otherwise status and msg carry the HTTP
// rejection. The pack handshake is the caller's, not runCellRequest's.
func (s *server) runCellRequest(req serveproto.SessionRequest) (*serveproto.SessionResponse, int, string) {
	runs := req.Runs
	if runs > serveproto.MaxRuns {
		return nil, http.StatusBadRequest, fmt.Sprintf("runs %d exceeds the %d cap", runs, serveproto.MaxRuns)
	}
	set, task, err := bench.ResolveCellIn(s.reg, bench.Cell{App: req.App, Task: req.Task, Setting: req.Setting, Runs: runs})
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, bench.ErrUnknownCell) {
			status = http.StatusNotFound
		}
		return nil, status, err.Error()
	}

	s.mu.Lock()
	s.inFlight++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.inFlight--
		s.mu.Unlock()
	}()

	// Every session start routes through the budgeted store: a warm hit, a
	// zero-rip snapshot reload, or a fresh build, whatever the LRU state
	// dictates. The fetched view carries the same token accounting as the
	// full catalog build, so the cell outcomes are byte-identical to
	// bench.Run's.
	models, err := agent.ModelsFor(s.store, task.App, 1)
	if err != nil {
		return nil, http.StatusInternalServerError, fmt.Sprintf("model build failed: %v", err)
	}
	outcomes := bench.RunCell(models, set, task, runs, 1)

	s.mu.Lock()
	s.sessions++
	s.runs += int64(len(outcomes))
	s.mu.Unlock()

	return &serveproto.SessionResponse{
		App:      task.App,
		Task:     task.ID,
		Setting:  set.Label,
		Runs:     runs,
		Pack:     s.reg.Name(),
		PackHash: s.reg.Hash(),
		Outcomes: outcomes,
	}, http.StatusOK, ""
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	st := s.store.Stats()
	s.mu.Lock()
	sessions, runs, inFlight, expansions := s.sessions, s.runs, s.inFlight, s.expansions
	s.mu.Unlock()
	reused, built := osworld.PoolStats()
	writeJSON(w, serveproto.StatsResponse{
		Sessions:     sessions,
		Runs:         runs,
		InFlight:     inFlight,
		Expansions:   expansions,
		EnvsReused:   reused,
		EnvsBuilt:    built,
		Store:        st,
		WarmHitRatio: serveproto.HitRatio(st),
		BudgetBytes:  s.store.Budget(),
		CoreTokens:   s.coreTokens,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	// The server only exists after the prewarm succeeded, so reachable
	// means ready.
	writeJSON(w, serveproto.Health{
		OK: true, Apps: len(agent.AppNames()),
		Pack: s.reg.Name(), PackHash: s.reg.Hash(),
		Instance: s.instance,
	})
}

// newInstanceID draws a random per-process identity for /v1/healthz, so a
// coordinator's health prober can tell a replica that blipped from one that
// was killed and restarted on the same address — the id changes on restart.
func newInstanceID() string {
	var buf [8]byte
	if _, err := cryptorand.Read(buf[:]); err != nil {
		return fmt.Sprintf("pid-%d", os.Getpid())
	}
	return hex.EncodeToString(buf[:])
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	if err := enc.Encode(v); err != nil {
		// Headers are gone; nothing useful left to send.
		return
	}
}
