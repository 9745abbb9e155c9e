package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/agent"
	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// Cell is one serializable job unit of the evaluation grid: a (setting,
// task) pair with its repetition count. Everything in it is a string or an
// int, so a cell crosses process boundaries as-is — it is the body of one
// POST /v1/cells to the daemon. A cell's outcomes are a pure function
// of the cell (the RNG streams derive from setting, task, and run index
// alone, and the offline models are read-only), which makes dispatching
// idempotent: re-running a cell anywhere produces the same bytes.
type Cell struct {
	App     string `json:"app"`
	Task    string `json:"task"`
	Setting string `json:"setting"`
	Runs    int    `json:"runs"`
}

// Dispatcher abstracts where a grid cell executes. LocalDispatcher runs it
// on this process's warm models; RemoteDispatcher ships it to a dmi-serve
// replica. Dispatch must return exactly cell.Runs outcomes in run order —
// the same slice bench.Run produces for the cell — or an error; it must be
// safe for concurrent use, because RunDispatchedIn runs each cell on its
// own goroutine, as many at once as its capacity allows.
type Dispatcher interface {
	Dispatch(ctx context.Context, cell Cell) ([]agent.Outcome, error)
}

// GridCellsIn enumerates the full evaluation grid over a task registry in
// grid order (settings-major over the Table 3 matrix, then tasks in pack
// order): the canonical cell sequence every dispatcher-backed run fans out
// and every aggregation depends on.
func GridCellsIn(reg *taskpack.Registry, runs int) []Cell {
	settings := Matrix()
	tasks := reg.Tasks()
	cells := make([]Cell, 0, len(settings)*len(tasks))
	for _, set := range settings {
		for _, task := range tasks {
			cells = append(cells, Cell{App: task.App, Task: task.ID, Setting: set.Label, Runs: runs})
		}
	}
	return cells
}

// ErrUnknownCell marks a cell that names a task or setting outside the
// catalog/matrix — a lookup miss, as opposed to a malformed cell. The
// serving daemon maps it to 404 versus 400.
var ErrUnknownCell = errors.New("unknown")

// ResolveCellIn validates a cell against a task registry and the matrix. It
// is the shared gate: the local dispatcher uses it before executing, and the
// serving daemon applies the same checks to inbound requests.
func ResolveCellIn(reg *taskpack.Registry, cell Cell) (Setting, osworld.Task, error) {
	task, ok := reg.ByID(cell.Task)
	if !ok {
		return Setting{}, osworld.Task{}, fmt.Errorf("%w task %q", ErrUnknownCell, cell.Task)
	}
	if cell.App != "" && cell.App != task.App {
		return Setting{}, osworld.Task{}, fmt.Errorf("task %q belongs to %q, not %q", cell.Task, task.App, cell.App)
	}
	set, ok := SettingByLabel(cell.Setting)
	if !ok {
		return Setting{}, osworld.Task{}, fmt.Errorf("%w setting %q", ErrUnknownCell, cell.Setting)
	}
	if cell.Runs <= 0 {
		return Setting{}, osworld.Task{}, fmt.Errorf("runs %d must be positive", cell.Runs)
	}
	return set, task, nil
}

// LocalDispatcher executes cells in-process over the shared warm models
// through RunCell. A cell's runs are sequential; cross-cell concurrency
// comes from RunDispatchedIn.
type LocalDispatcher struct {
	reg    *taskpack.Registry
	models *agent.Models
}

// NewLocalDispatcherIn wraps warm models as a dispatcher resolving cells
// against a task registry. The last argument is accepted and ignored until
// perfbench stops passing it.
func NewLocalDispatcherIn(reg *taskpack.Registry, models *agent.Models, _ int) *LocalDispatcher {
	return &LocalDispatcher{reg: reg, models: models}
}

// Dispatch runs the cell through RunCell: same RNG streams, same run order,
// byte-identical to the slice bench.Run produces for the cell.
func (d *LocalDispatcher) Dispatch(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	set, task, err := ResolveCellIn(d.reg, cell)
	if err != nil {
		return nil, err
	}
	return RunCell(d.models, set, task, cell.Runs, 1), nil
}

// aggregateGrid flattens grid-order outcome slots and aggregates them
// sequentially into the Report — the exact code path the in-process Run
// feeds, so a dispatcher-backed report is byte-identical to it regardless
// of which replica ran which cell or in what order they finished.
func aggregateGrid(reg *taskpack.Registry, out [][]agent.Outcome, runs int) *Report {
	settings := Matrix()
	tasks := reg.Tasks()
	flat := make([]agent.Outcome, 0, len(out)*max(runs, 0))
	for _, outcomes := range out {
		flat = append(flat, outcomes...)
	}
	rep := &Report{Runs: runs, Tasks: tasks}
	per := 0
	if runs > 0 {
		per = len(tasks) * runs
	}
	for i, set := range settings {
		rep.Rows = append(rep.Rows, aggregate(set, tasks, runs, flat[i*per:(i+1)*per]))
	}
	return rep
}

// capacityPoll is how often the feeder re-reads capacity while saturated.
// Capacity grows without a completion event when a replica recovers or
// joins; polling bounds how long that new headroom sits idle.
const capacityPoll = 100 * time.Millisecond

// CapacityReporter is implemented by dispatchers whose capacity changes at
// runtime — RemoteDispatcher's is the cells its replicas in rotation can
// hold in flight. RunDispatchedIn at concurrency <= 0 paces the grid
// against it.
type CapacityReporter interface {
	Capacity() int
}

// RunDispatchedIn executes a task registry's full evaluation grid through a
// dispatcher. concurrency > 0 caps the cells in flight. concurrency <= 0
// means as many as the dispatcher can hold: a CapacityReporter's live
// Capacity(), re-read as the fleet shrinks when replicas fail and grows when
// they recover or join mid-run, and GOMAXPROCS for any other dispatcher.
//
// A reported capacity of zero (every replica down) is floored at 1: the run
// keeps one dispatch in flight so it surfaces the terminal "all replicas
// failed" error — or rides a recovery — instead of parking forever on a
// poll loop.
func RunDispatchedIn(ctx context.Context, reg *taskpack.Registry, d Dispatcher, runs, concurrency int) (*Report, error) {
	capacity := func() int { return concurrency }
	if concurrency <= 0 {
		if cr, ok := d.(CapacityReporter); ok {
			capacity = func() int { return max(cr.Capacity(), 1) }
		} else {
			concurrency = runtime.GOMAXPROCS(0)
		}
	}
	return runGrid(ctx, reg, d, runs, capacity)
}

// runGrid is the grid feeder behind RunDispatchedIn: it dispatches the next
// cell of a task registry's grid whenever fewer than capacity() cells are in
// flight, re-reading capacity as it goes. Outcomes land in grid-order slots
// and are folded sequentially (aggregateGrid), so the report is
// byte-identical to the in-process Run however the cells were scheduled. The
// first dispatch error cancels the remaining cells and is returned — it
// always wins over the cancellation it triggers, so the error names the cell
// that failed, not the collateral context.Canceled the other cells saw; a
// pure external cancellation returns ctx.Err().
func runGrid(ctx context.Context, reg *taskpack.Registry, d Dispatcher, runs int, capacity func() int) (*Report, error) {
	var cells []Cell
	if runs > 0 {
		// runs <= 0 dispatches nothing and aggregates an empty report —
		// the same zeroed rows the pre-dispatcher executeGrid produced.
		cells = GridCellsIn(reg, runs)
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	out := make([][]agent.Outcome, len(cells))
	var mu sync.Mutex
	var firstErr error
	dispatch := func(i int) {
		cell := cells[i]
		outcomes, err := d.Dispatch(ctx, cell)
		if err == nil && len(outcomes) != cell.Runs {
			err = fmt.Errorf("%d outcomes for %d runs", len(outcomes), cell.Runs)
		}
		if err == nil {
			out[i] = outcomes
			return
		}
		mu.Lock()
		if firstErr == nil {
			firstErr = fmt.Errorf("dispatch %s/%s: %w", cell.Setting, cell.Task, err)
			cancel()
		}
		mu.Unlock()
	}

	completed := make(chan struct{}, len(cells))
	poll := time.NewTicker(capacityPoll)
	defer poll.Stop()
	var wg sync.WaitGroup
	inFlight := 0
feed:
	for i := 0; i < len(cells); {
		if ctx.Err() != nil {
			break feed
		}
		if inFlight >= capacity() {
			select {
			case <-completed:
				inFlight--
			case <-poll.C:
				// Re-read capacity: a recovered or newly added replica may
				// have opened headroom with no completion to signal it.
			case <-ctx.Done():
				break feed
			}
			continue
		}
		idx := i
		i++
		inFlight++
		wg.Add(1)
		go func() {
			defer wg.Done()
			dispatch(idx)
			completed <- struct{}{}
		}()
	}
	wg.Wait()

	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return aggregateGrid(reg, out, runs), nil
}

// Remote dispatch --------------------------------------------------------------

// ReplicaStats is one replica's share of a dispatched run. The counters are
// defined so they stay mutually consistent across failover and recovery:
//
//   - Cells: cells this replica answered successfully.
//   - Failures: attempts that reached this replica and failed — a whole
//     request (transport error, 5xx, malformed or non-echoing response,
//     malformed 409 body) or one rip frame within an envelope (a per-frame
//     5xx). Each one sends its items back through replica selection, so at
//     quiescence the dispatcher's Retries() equals the sum of Failures over
//     replicas.
//   - Skips: dispatches that queued on this replica's in-flight slot but
//     found it down-marked by the time the slot freed. No request was made,
//     so a skip is neither a Cell nor a Failure — it only explains where a
//     dispatch's wait went.
//   - Recoveries: times a half-open probe returned this replica to rotation
//     after a down-mark.
//   - Down / DownSeconds: whether the replica is currently out of rotation,
//     and its cumulative down time (including the in-progress stretch).
//   - Removed: the replica was taken out of the membership mid-run; its
//     counters stay visible but it is never picked.
type ReplicaStats struct {
	BaseURL     string  `json:"base_url"`
	Cells       int     `json:"cells"`
	Failures    int     `json:"failures"`
	Skips       int     `json:"skips"`
	Recoveries  int     `json:"recoveries"`
	Down        bool    `json:"down"`
	Removed     bool    `json:"removed,omitempty"`
	DownSeconds float64 `json:"down_seconds"`
}

// RemoteOptions tunes a RemoteDispatcher.
type RemoteOptions struct {
	// InFlight caps concurrent cells per replica (default 4). The cap is
	// what keeps a fast coordinator from flooding a small replica: excess
	// dispatches queue on the least-loaded live replica's slot.
	InFlight int
	// Client issues the requests. The default carries a 5-minute timeout —
	// a hung replica must become a detected failure, never an indefinite
	// stall — sized to outlast the slowest legitimate cell (a max-runs
	// request against a cold model). Supply your own client to tighten it.
	Client *http.Client
	// Pack and PackHash stamp every request with the task pack this run
	// resolves cells against. A replica serving a different pack rejects the
	// request with 409 instead of silently answering from different task
	// content — outcomes are pure functions of (pack, setting, task, run), so
	// a pack mismatch would corrupt the whole report, not just one cell.
	// Empty values skip the handshake, on requests and on recovery probes
	// alike.
	Pack     string
	PackHash string
	// Batch is read by NewRemoteExpander only: it coalesces up to that many
	// rip frames per POST /v1/rip envelope (see ripshard.go). A
	// RemoteDispatcher sends every cell as its own POST /v1/cells and
	// NewRemoteDispatcher rejects Batch > 1.
	Batch int
	// ProbeInterval is the base delay between half-open /v1/healthz probes of
	// a down-marked replica (default 1s; negative disables probing, which
	// freezes the pre-recovery behavior of a down-mark lasting the whole
	// run). Failed probes back off exponentially — ×2 per failure, capped
	// at 30s or ProbeInterval, whichever is longer — and every delay
	// carries ±50% jitter so probers for replicas downed together don't
	// synchronize.
	ProbeInterval time.Duration
	// Logf, when set, receives membership and recovery events (replica
	// down-marked, recovered, added, removed). The coordinator points it at
	// stderr; nil discards them.
	Logf func(format string, args ...any)
}

// RemoteDispatcher shards cells across N dmi-serve replicas over the
// HTTP/JSON serving protocol. Each dispatch picks the least-loaded
// live replica (equal-load ties rotate round-robin), bounded by the
// per-replica in-flight cap. A transport error, a 5xx, or a malformed
// response marks the replica down and the cell is re-dispatched to another
// replica — safe because cells are idempotent (see Cell). A 4xx is the
// request's fault, not the replica's: it is returned immediately without
// marking anything down, since every replica would reject it identically.
// failover holds the whole verdict table.
//
// Every cell travels as its own POST /v1/cells (see cell.go).
//
// A down-mark is detection, not a death sentence: a half-open prober polls
// the replica's /v1/healthz on a jittered backoff and returns it to rotation
// once it answers ready with a matching pack identity (see probe.go). The
// membership is elastic — AddReplica and RemoveReplica adjust the fleet
// mid-run (see membership.go). Close stops the background probers; a
// dispatcher used past a single run should be closed when retired.
type RemoteDispatcher struct {
	client      *http.Client
	probeClient *http.Client
	pack        string
	packHash    string
	inflight    int
	probeBase   time.Duration // 0 = probing disabled
	probeMax    time.Duration
	logf        func(string, ...any)

	done      chan struct{} // closed by Close; stops the probers
	closeOnce sync.Once

	mu       sync.Mutex
	replicas []*replica // elastic membership list
	rr       int        // rotating scan offset for pick's tie-break
	retries  int        // failed attempts that sent an item back through pick
	rng      *rand.Rand // jitter source for probe backoff
}

// replica is one backend's dispatch state.
type replica struct {
	base string
	slot chan struct{} // in-flight cap

	mu         sync.Mutex
	down       bool
	removed    bool
	probing    bool // a half-open prober is watching this replica
	cells      int
	failures   int
	skips      int
	recoveries int
	downSince  time.Time     // start of the current down stretch (zero if up)
	downTotal  time.Duration // completed down stretches
	instance   string        // last /v1/healthz instance id a probe saw
}

// NormalizeReplicaURL canonicalizes a replica base URL the way the
// dispatcher stores it (trimmed, no trailing slash) and validates that it
// is an http(s) URL — the form Members() returns and membership diffing
// compares against.
func NormalizeReplicaURL(raw string) (string, error) {
	base := strings.TrimRight(strings.TrimSpace(raw), "/")
	if base == "" {
		return "", errors.New("bench: empty replica URL")
	}
	if !strings.HasPrefix(base, "http://") && !strings.HasPrefix(base, "https://") {
		return "", fmt.Errorf("bench: replica %q is not an http(s) base URL", raw)
	}
	return base, nil
}

// NewRemoteDispatcher validates the replica list and builds a dispatcher.
func NewRemoteDispatcher(baseURLs []string, opt RemoteOptions) (*RemoteDispatcher, error) {
	if len(baseURLs) == 0 {
		return nil, errors.New("bench: remote dispatcher needs at least one replica")
	}
	if opt.Batch > 1 {
		return nil, fmt.Errorf("bench: RemoteOptions.Batch %d: a remote dispatcher sends one cell per request (Batch coalesces rip frames only)", opt.Batch)
	}
	inflight := opt.InFlight
	if inflight <= 0 {
		inflight = 4
	}
	client := opt.Client
	if client == nil {
		client = &http.Client{Timeout: 5 * time.Minute}
	}
	probeBase := opt.ProbeInterval
	switch {
	case probeBase < 0:
		probeBase = 0 // probing disabled: down-marks last the dispatcher's lifetime
	case probeBase == 0:
		probeBase = time.Second
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	d := &RemoteDispatcher{
		client:      client,
		probeClient: &http.Client{Timeout: probeTimeout},
		pack:        opt.Pack,
		packHash:    opt.PackHash,
		inflight:    inflight,
		probeBase:   probeBase,
		probeMax:    max(probeBackoffCap, probeBase),
		logf:        logf,
		done:        make(chan struct{}),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
	}
	seen := make(map[string]bool)
	for _, raw := range baseURLs {
		base, err := NormalizeReplicaURL(raw)
		if err != nil {
			return nil, err
		}
		if seen[base] {
			return nil, fmt.Errorf("bench: duplicate replica %q", base)
		}
		seen[base] = true
		d.replicas = append(d.replicas, &replica{base: base, slot: make(chan struct{}, inflight)})
	}
	return d, nil
}

// Close stops the dispatcher's background probers. In-flight and later
// Dispatch calls are unaffected (they carry their own contexts); after Close
// a down-marked replica stays down. Safe to call more than once.
func (d *RemoteDispatcher) Close() {
	d.closeOnce.Do(func() { close(d.done) })
}

// Dispatch ships the cell as one POST /v1/cells to a live replica through
// failover on the caller's goroutine, re-dispatching on replica failure
// until a replica answers or none are left.
func (d *RemoteDispatcher) Dispatch(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
	if cell.Runs <= 0 {
		// Every replica rejects such a cell with ResolveCellIn's 400; fail
		// it here without the round trip.
		return nil, fmt.Errorf("runs %d must be positive", cell.Runs)
	}
	var outcomes []agent.Outcome
	var err error
	failover(ctx, d, []Cell{cell}, d.postCell, func(_ Cell, o []agent.Outcome, e error) {
		outcomes, err = o, e
	})
	return outcomes, err
}

// answer is one item's share of an envelope's response: its result, or the
// error that kept it from one.
type answer[R any] struct {
	res R
	err error
}

// failover is the one retry loop behind every remote envelope — a cell
// (always alone), a batch of rip frames. It acquires a live replica, has post send the
// items to it as one envelope, and applies one verdict table to the answer:
//
//   - An item answered without error is counted on the replica and
//     delivered; an item answered with a *requestError (its own 4xx) is
//     delivered that error as final; any other item error is the replica's
//     fault: the replica is down-marked and only the faulted items are
//     re-sent elsewhere.
//   - An envelope-level error is final for every item when ctx is done (a
//     cancelled caller is never the replica's fault) or when it is a pack
//     mismatch (the operator must restart one side). A *requestError is
//     final for a one-item envelope; a larger envelope the replica refused
//     as a whole is split into one-item envelopes, sent concurrently.
//     Neither down-marks anything nor counts a retry. Any other error
//     down-marks the replica and re-sends the whole envelope elsewhere.
//
// Every down-mark counts one retry, so Retries() equals the sum of the
// replicas' Failures at quiescence. Items are idempotent, so re-sending one
// whose first attempt may have executed is safe. deliver is called exactly
// once per item; failover returns when every item has been delivered.
func failover[T, R any](ctx context.Context, d *RemoteDispatcher, items []T,
	post func(context.Context, *replica, []T) ([]answer[R], error), deliver func(T, R, error)) {
	var zero R
	failAll := func(err error) {
		for _, it := range items {
			deliver(it, zero, err)
		}
	}
	tried := make(map[*replica]bool)
	var failures []error
	fault := func(rep *replica, err error) {
		d.markDown(rep, err)
		tried[rep] = true
		failures = append(failures, fmt.Errorf("%s: %w", rep.base, err))
	}
	for len(items) > 0 {
		rep, err := d.acquire(ctx, tried)
		if err != nil {
			failAll(err)
			return
		}
		if rep == nil {
			if len(failures) == 0 {
				failAll(errors.New("no live replicas"))
			} else {
				failAll(fmt.Errorf("all replicas failed: %w", errors.Join(failures...)))
			}
			return
		}
		answers, err := post(ctx, rep, items)
		<-rep.slot
		var mismatch *PackMismatchError
		var bad *requestError
		switch {
		case err == nil:
		case ctx.Err() != nil:
			failAll(ctx.Err())
			return
		case errors.As(err, &mismatch), errors.As(err, &bad) && len(items) == 1:
			failAll(err)
			return
		case errors.As(err, &bad):
			d.logf("replica %s rejected a %d-item envelope (%v); re-sending its items one per envelope",
				rep.base, len(items), err)
			// Concurrently, so one slow item does not serialize its former
			// envelope-mates.
			var wg sync.WaitGroup
			for _, it := range items {
				wg.Add(1)
				go func() {
					defer wg.Done()
					failover(ctx, d, []T{it}, post, deliver)
				}()
			}
			wg.Wait()
			return
		default:
			fault(rep, err)
			continue
		}
		var redo []T
		for i, a := range answers {
			switch {
			case a.err == nil:
				rep.mu.Lock()
				rep.cells++
				rep.mu.Unlock()
				deliver(items[i], a.res, nil)
			case errors.As(a.err, &bad):
				deliver(items[i], zero, a.err)
			default:
				fault(rep, a.err)
				redo = append(redo, items[i])
			}
		}
		items = redo
	}
}

// acquire picks a live, untried replica and takes one of its in-flight
// slots; the caller posts and then releases the slot. Another dispatch may
// have down-marked (or a reload removed) the replica while this one waited
// for the slot; posting anyway would burn a full client timeout against a
// known-dead backend while live replicas idle, so such a replica is skipped
// and the pick repeats. The skip is accounted (ReplicaStats.Skips) — no
// request was made, so it is neither a cell nor a failure. acquire returns
// nil when no candidate remains, and ctx's error if ctx ends while waiting.
func (d *RemoteDispatcher) acquire(ctx context.Context, tried map[*replica]bool) (*replica, error) {
	for {
		rep := d.pick(tried)
		if rep == nil {
			return nil, nil
		}
		select {
		case rep.slot <- struct{}{}:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		rep.mu.Lock()
		skip := rep.down || rep.removed
		if skip {
			rep.skips++
		}
		rep.mu.Unlock()
		if !skip {
			return rep, nil
		}
		<-rep.slot
	}
}

// markDown trips the failure detector: the replica leaves rotation and, if
// probing is enabled, a half-open prober starts watching its /v1/healthz for
// recovery (at most one prober per replica). Each call counts one failed
// attempt on the replica and one retry on the dispatcher — the failed item
// goes back through replica selection — which is what keeps Retries() equal
// to the sum of the replicas' Failures.
func (d *RemoteDispatcher) markDown(rep *replica, cause error) {
	d.mu.Lock()
	d.retries++
	d.mu.Unlock()
	rep.mu.Lock()
	rep.failures++
	wasDown := rep.down
	startProbe := false
	if !wasDown {
		rep.down = true
		rep.downSince = time.Now()
		if d.probeBase > 0 && !rep.probing && !rep.removed {
			rep.probing = true
			startProbe = true
		}
	}
	rep.mu.Unlock()
	if !wasDown {
		d.logf("replica %s marked down: %v", rep.base, cause)
	}
	if startProbe {
		go d.probe(rep)
	}
}

// pick returns a live, not-yet-tried replica with the fewest cells in
// flight, or nil when none remain. Equal-load ties rotate: the scan starts
// one replica further along the membership list on every call, so an idle
// fleet shares cells round-robin instead of the lowest-index replica
// absorbing every dispatch whose predecessor finished before the next pick
// (the replica-0 skew this used to have at low concurrency).
func (d *RemoteDispatcher) pick(tried map[*replica]bool) *replica {
	d.mu.Lock()
	replicas := make([]*replica, len(d.replicas))
	copy(replicas, d.replicas)
	start := 0
	if len(replicas) > 0 {
		start = d.rr % len(replicas)
		d.rr++
	}
	d.mu.Unlock()
	var best *replica
	bestLoad := 0
	for i := range replicas {
		rep := replicas[(start+i)%len(replicas)]
		if tried[rep] {
			continue
		}
		rep.mu.Lock()
		skip := rep.down || rep.removed
		rep.mu.Unlock()
		if skip {
			continue
		}
		load := len(rep.slot)
		if best == nil || load < bestLoad {
			best, bestLoad = rep, load
		}
	}
	return best
}

// requestError marks a 4xx: the request is at fault, so re-dispatching it
// to another replica cannot help.
type requestError struct{ msg string }

func (e *requestError) Error() string { return e.msg }

// PackMismatchError reports a replica that is alive and well but serving a
// different task pack than the run dispatches against. It names both sides
// so the operator knows exactly which replica to restart and with what.
type PackMismatchError struct {
	Replica            string // replica base URL
	WantPack, WantHash string // the pack this run dispatches against
	HavePack, HaveHash string // the pack the replica is serving
}

func (e *PackMismatchError) Error() string {
	return fmt.Sprintf("replica %s serves task pack %s (hash %.12s), this run needs %s (hash %.12s)",
		e.Replica, e.HavePack, e.HaveHash, e.WantPack, e.WantHash)
}

// postEnvelope runs one envelope round trip — a POST /v1/cells or a
// POST /v1/rip: the JSON body goes to path with the extra header fields in
// hdr (the rip post declares its frame count there, so the replica can
// bound its body reader before reading a byte), and a 200 answer is decoded
// into out. The non-200 triage is shared by every envelope. Only a
// well-formed PackMismatch with its replica-side fields filled in is the
// replica's considered 409 verdict; anything else arriving as a 409 — a
// proxy error page, a truncated body, a zero-valued JSON object — reads as
// a replica failure (down-mark + re-dispatch), never as a pack mismatch or
// a final request error, since both of those abort the whole run on what
// is really one broken backend. Any other 4xx is the request's fault
// (*requestError); transport errors, 5xx and undecodable bodies are the
// replica's.
func (d *RemoteDispatcher) postEnvelope(ctx context.Context, rep *replica, path string, hdr http.Header, body, out any) error {
	data, err := json.Marshal(body)
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.base+path, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header[k] = v
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusOK:
	case resp.StatusCode == http.StatusConflict:
		var pm serveproto.PackMismatch
		if err := json.NewDecoder(io.LimitReader(resp.Body, 1024)).Decode(&pm); err == nil &&
			(pm.HavePack != "" || pm.HaveHash != "") {
			return &PackMismatchError{
				Replica:  rep.base,
				WantPack: pm.WantPack, WantHash: pm.WantHash,
				HavePack: pm.HavePack, HaveHash: pm.HaveHash,
			}
		}
		return errors.New("status 409 with malformed pack-mismatch body")
	default:
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		msg := fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		if resp.StatusCode >= 400 && resp.StatusCode < 500 {
			return &requestError{msg: msg}
		}
		return errors.New(msg)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("malformed response: %w", err)
	}
	return nil
}

// Retries reports how many attempts failed at a replica and sent their
// items back through replica selection. Attempts on an item that
// ultimately failed everywhere count too, so at quiescence Retries equals
// the sum of ReplicaStats.Failures across the fleet; slot-wait skips are
// counted separately (ReplicaStats.Skips) because no request was made.
func (d *RemoteDispatcher) Retries() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.retries
}

// Stats snapshots every replica's share of the run, in membership-list
// order (removed replicas included, flagged Removed).
func (d *RemoteDispatcher) Stats() []ReplicaStats {
	replicas := d.snapshot()
	out := make([]ReplicaStats, len(replicas))
	for i, rep := range replicas {
		rep.mu.Lock()
		downFor := rep.downTotal
		if rep.down && !rep.downSince.IsZero() {
			downFor += time.Since(rep.downSince)
		}
		out[i] = ReplicaStats{
			BaseURL:     rep.base,
			Cells:       rep.cells,
			Failures:    rep.failures,
			Skips:       rep.skips,
			Recoveries:  rep.recoveries,
			Down:        rep.down,
			Removed:     rep.removed,
			DownSeconds: downFor.Seconds(),
		}
		rep.mu.Unlock()
	}
	return out
}

// Live returns the base URLs of replicas in rotation (not down, not
// removed), in membership-list order.
func (d *RemoteDispatcher) Live() []string {
	var live []string
	for _, rep := range d.snapshot() {
		rep.mu.Lock()
		ok := !rep.down && !rep.removed
		rep.mu.Unlock()
		if ok {
			live = append(live, rep.base)
		}
	}
	return live
}

// snapshot copies the membership list under the lock so callers can walk it
// without holding d.mu across per-replica locking.
func (d *RemoteDispatcher) snapshot() []*replica {
	d.mu.Lock()
	defer d.mu.Unlock()
	replicas := make([]*replica, len(d.replicas))
	copy(replicas, d.replicas)
	return replicas
}
