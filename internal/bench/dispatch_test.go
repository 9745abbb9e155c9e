package bench

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/modelstore"
	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// TestGridCells pins the canonical cell enumeration every dispatcher-backed
// run and every aggregation depend on: settings-major over the matrix, then
// tasks in catalog order.
func TestGridCells(t *testing.T) {
	runs := 3
	cells := GridCellsIn(taskpack.Builtin(), runs)
	settings, tasks := Matrix(), osworld.All()
	if len(cells) != len(settings)*len(tasks) {
		t.Fatalf("%d cells, want %d", len(cells), len(settings)*len(tasks))
	}
	for i, cell := range cells {
		set, task := settings[i/len(tasks)], tasks[i%len(tasks)]
		want := Cell{App: task.App, Task: task.ID, Setting: set.Label, Runs: runs}
		if cell != want {
			t.Fatalf("cell %d = %+v, want %+v", i, cell, want)
		}
	}
}

// TestResolveCell covers the shared validation gate.
func TestResolveCell(t *testing.T) {
	task := osworld.All()[0]
	label := Matrix()[0].Label
	if _, _, err := ResolveCellIn(taskpack.Builtin(), Cell{Task: task.ID, Setting: label, Runs: 1}); err != nil {
		t.Fatalf("valid cell rejected: %v", err)
	}
	cases := []struct {
		cell    Cell
		unknown bool
	}{
		{Cell{Task: "no-such-task", Setting: label, Runs: 1}, true},
		{Cell{Task: task.ID, Setting: "no-such-setting", Runs: 1}, true},
		{Cell{App: "WrongApp", Task: task.ID, Setting: label, Runs: 1}, false},
		{Cell{Task: task.ID, Setting: label, Runs: 0}, false},
	}
	for _, c := range cases {
		_, _, err := ResolveCellIn(taskpack.Builtin(), c.cell)
		if err == nil {
			t.Errorf("ResolveCellIn(taskpack.Builtin(), %+v) accepted an invalid cell", c.cell)
			continue
		}
		if got := errors.Is(err, ErrUnknownCell); got != c.unknown {
			t.Errorf("ResolveCellIn(taskpack.Builtin(), %+v): ErrUnknownCell = %v, want %v (err %v)", c.cell, got, c.unknown, err)
		}
	}
}

// fakeDispatcher adapts a function to the Dispatcher interface for
// model-free plumbing tests.
type fakeDispatcher func(ctx context.Context, cell Cell) ([]agent.Outcome, error)

func (f fakeDispatcher) Dispatch(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
	return f(ctx, cell)
}

// TestRunDispatchedPlumbing exercises the orchestration layer without
// models: cancellation, error propagation with cancellation of the
// remaining cells, and the runs-count contract.
func TestRunDispatchedPlumbing(t *testing.T) {
	t.Run("pre-cancelled context", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		called := false
		_, err := RunDispatchedIn(ctx, taskpack.Builtin(), fakeDispatcher(func(context.Context, Cell) ([]agent.Outcome, error) {
			called = true
			return nil, nil
		}), 1, 1)
		if err == nil {
			t.Fatal("cancelled run must error")
		}
		if called {
			t.Error("no cell should dispatch after cancellation")
		}
	})
	t.Run("first error cancels the rest", func(t *testing.T) {
		var dispatched atomic.Int64
		boom := errors.New("boom")
		_, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), fakeDispatcher(func(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
			dispatched.Add(1)
			return nil, boom
		}), 1, 4)
		if !errors.Is(err, boom) {
			t.Fatalf("error not propagated: %v", err)
		}
		if n, total := dispatched.Load(), int64(len(GridCellsIn(taskpack.Builtin(), 1))); n >= total {
			t.Errorf("cancellation never stopped the fan-out: %d of %d cells dispatched", n, total)
		}
	})
	t.Run("non-positive runs dispatch nothing", func(t *testing.T) {
		// The pre-dispatcher executeGrid produced zero jobs and zeroed
		// rows for runs<=0; the seam must preserve that instead of
		// erroring or panicking.
		for _, runs := range []int{0, -3} {
			called := false
			rep, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), fakeDispatcher(func(context.Context, Cell) ([]agent.Outcome, error) {
				called = true
				return nil, errors.New("no cell should dispatch")
			}), runs, 4)
			if err != nil {
				t.Fatalf("runs=%d: %v", runs, err)
			}
			if called {
				t.Errorf("runs=%d dispatched a cell", runs)
			}
			if len(rep.Rows) != len(Matrix()) || rep.Rows[0].Total != 0 {
				t.Errorf("runs=%d: report rows out of shape: %d rows, total %d",
					runs, len(rep.Rows), rep.Rows[0].Total)
			}
		}
	})
	t.Run("wrong outcome count is an error", func(t *testing.T) {
		_, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), fakeDispatcher(func(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
			return make([]agent.Outcome, cell.Runs+1), nil
		}), 2, 1)
		if err == nil || !strings.Contains(err.Error(), "outcomes for") {
			t.Fatalf("short/long outcome slices must fail the run, got %v", err)
		}
	})
}

// holdingDispatcher parks every cell until the gate opens — once want cells
// are in flight at the same time, or the test gives up waiting — and records
// the peak number of cells in flight.
type holdingDispatcher struct {
	want     int64
	gate     chan struct{}
	open     sync.Once
	inFlight atomic.Int64
	peak     atomic.Int64
}

func (h *holdingDispatcher) Dispatch(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
	n := h.inFlight.Add(1)
	defer h.inFlight.Add(-1)
	for {
		cur := h.peak.Load()
		if n <= cur || h.peak.CompareAndSwap(cur, n) {
			break
		}
	}
	if n >= h.want {
		h.open.Do(func() { close(h.gate) })
	}
	select {
	case <-h.gate:
		return make([]agent.Outcome, cell.Runs), nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// reportingDispatcher is a holdingDispatcher that reports a fixed capacity.
type reportingDispatcher struct {
	*holdingDispatcher
	capacity int
}

func (r reportingDispatcher) Capacity() int { return r.capacity }

// TestRunDispatchedCapacity pins RunDispatchedIn's concurrency rule: a
// positive concurrency is a fixed cap whatever the dispatcher reports;
// concurrency 0 follows a CapacityReporter's Capacity() (floored at one
// cell) and falls back to GOMAXPROCS for any other dispatcher.
func TestRunDispatchedCapacity(t *testing.T) {
	for _, c := range []struct {
		name        string
		concurrency int
		capacity    int // < 0: the dispatcher is not a CapacityReporter
		want        int
	}{
		{"fixed cap beats capacity", 3, 7, 3},
		{"zero follows capacity", 0, 5, 5},
		{"zero without reporter", 0, -1, runtime.GOMAXPROCS(0)},
		{"zero capacity floors at one", 0, 0, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := &holdingDispatcher{want: int64(c.want), gate: make(chan struct{})}
			var d Dispatcher = h
			if c.capacity >= 0 {
				d = reportingDispatcher{h, c.capacity}
			}
			go func() {
				// A run that never reaches want cells in flight would park
				// forever; open the gate so it finishes and reports its peak.
				select {
				case <-h.gate:
				case <-time.After(5 * time.Second):
					h.open.Do(func() { close(h.gate) })
				}
			}()
			if _, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), d, 1, c.concurrency); err != nil {
				t.Fatal(err)
			}
			if got := h.peak.Load(); got != int64(c.want) {
				t.Errorf("peak %d cells in flight, want %d", got, c.want)
			}
		})
	}
}

// testReplica is an httptest-backed dmi-serve stand-in: it answers
// POST /v1/cells from the shared in-process models through the same
// ResolveCellIn + RunCell path the daemon uses, with injectable failure
// modes. Its /v1/healthz mirrors the daemon's: 500 while the failure
// injection is active (a down replica's health endpoint is down too, so
// down-stays-down tests hold), ready otherwise — and optionally recovering
// after a set number of probes, for the half-open circuit tests. Any other
// route is a 404, as on the daemon.
type testReplica struct {
	models *agent.Models
	// failAfter starts failing once this many cells have been served
	// (-1 = never fail): each cell answers 500, or, with wrongEcho, a 200
	// whose response does not echo the cell.
	failAfter int64
	wrongEcho bool
	// hang blocks every request until release is closed instead of
	// answering — the wedged-replica case the client timeout must catch.
	// (The request context is not reliable here: with an unread body the
	// server may never notice the client abort, and httptest.Server.Close
	// would wait on the wedged handlers forever.)
	hang    bool
	release chan struct{}
	// conflictBody, when set, answers every cell with 409 and this raw
	// body — the misclassification cases (proxy page, zero-valued JSON).
	conflictBody string
	// probesToRecover lifts the failAfter injection once this many
	// /v1/healthz probes have arrived (0 = the outage is permanent).
	probesToRecover int64
	// instance is echoed on /v1/healthz, mimicking the daemon's per-process id.
	instance string

	served           atomic.Int64 // successful cells
	failed           atomic.Int64 // injected failures
	probes           atomic.Int64 // /v1/healthz requests received
	recovered        atomic.Bool  // failure injection lifted by a probe
	servedAtRecovery atomic.Int64 // cells served when recovery happened
	cellCalls        atomic.Int64 // POST /v1/cells requests received
}

// failing reports whether the injected outage is active.
func (tr *testReplica) failing() bool {
	return tr.failAfter >= 0 && tr.served.Load() >= tr.failAfter && !tr.recovered.Load()
}

func (tr *testReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if tr.hang {
		select {
		case <-r.Context().Done():
		case <-tr.release:
		}
		return
	}
	switch r.URL.Path {
	case serveproto.PathHealthz:
		tr.serveHealthz(w)
	case serveproto.PathCells:
		tr.serveCells(w, r)
	default:
		http.NotFound(w, r)
	}
}

func (tr *testReplica) serveHealthz(w http.ResponseWriter) {
	n := tr.probes.Add(1)
	if tr.failing() {
		if tr.probesToRecover > 0 && n >= tr.probesToRecover {
			tr.servedAtRecovery.Store(tr.served.Load())
			tr.recovered.Store(true)
		} else {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(serveproto.Health{OK: true, Apps: 1, Instance: tr.instance})
}

// serveCells answers POST /v1/cells the way the daemon does: the body is
// decoded by the daemon's own strict decoder, and every failure is the HTTP
// status itself.
func (tr *testReplica) serveCells(w http.ResponseWriter, r *http.Request) {
	if tr.conflictBody != "" {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		io.WriteString(w, tr.conflictBody)
		return
	}
	req, err := serveproto.DecodeSessionRequest(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	tr.cellCalls.Add(1)
	if tr.failing() {
		tr.failed.Add(1)
		if tr.wrongEcho {
			writeJSON(w, serveproto.SessionResponse{Task: req.Task, Setting: req.Setting, Runs: req.Runs})
			return
		}
		http.Error(w, "injected replica failure", http.StatusInternalServerError)
		return
	}
	cell := Cell{App: req.App, Task: req.Task, Setting: req.Setting, Runs: req.Runs}
	set, task, err := ResolveCellIn(taskpack.Builtin(), cell)
	if err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, ErrUnknownCell) {
			status = http.StatusNotFound
		}
		http.Error(w, err.Error(), status)
		return
	}
	outcomes := RunCell(tr.models, set, task, cell.Runs, 1)
	tr.served.Add(1)
	writeJSON(w, serveproto.SessionResponse{
		App: task.App, Task: task.ID, Setting: set.Label, Runs: cell.Runs, Outcomes: outcomes,
	})
}

// writeJSON answers 200 with v as JSON, as the daemon does.
func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// checkRetryLedger asserts the accounting rule every dispatch test holds:
// at quiescence Retries() equals the sum of per-replica Failures.
func checkRetryLedger(t *testing.T, rd *RemoteDispatcher) {
	t.Helper()
	sum := 0
	for _, st := range rd.Stats() {
		sum += st.Failures
	}
	if rd.Retries() != sum {
		t.Errorf("Retries() = %d, but per-replica failures sum to %d", rd.Retries(), sum)
	}
}

// startReplicas spins n healthy test replicas plus any custom ones and
// returns their base URLs.
func startReplicas(t *testing.T, replicas ...*testReplica) []string {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, tr := range replicas {
		srv := httptest.NewServer(tr)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// TestRunDispatchedLocalEquivalence: the dispatcher-routed run renders
// byte-identically to the sequential Run and matches it outcome-for-outcome.
// TestParallelReportEquivalence and TestRunStreamedLocalEquivalence cover
// the wider pools and concurrency 0.
func TestRunDispatchedLocalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	seq := renderAll(models, rep)
	for _, concurrency := range []int{1, 8} {
		got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), NewLocalDispatcherIn(taskpack.Builtin(), models, 1), 3, concurrency)
		if err != nil {
			t.Fatalf("concurrency=%d: %v", concurrency, err)
		}
		if rendered := renderAll(models, got); rendered != seq {
			t.Fatalf("concurrency=%d: dispatched report differs from sequential", concurrency)
		}
		for i := range rep.Rows {
			for j, o := range rep.Rows[i].Outcomes {
				if got.Rows[i].Outcomes[j] != o {
					t.Fatalf("concurrency=%d row %d outcome %d: %+v != %+v",
						concurrency, i, j, got.Rows[i].Outcomes[j], o)
				}
			}
		}
	}
}

// TestDispatchIdempotent pins the re-dispatch contract the coordinator's
// whole failure-handling story rests on: a cell's outcomes are a pure
// function of (model, task, setting, run), so dispatching the same cell
// twice — on the same dispatcher or on a dispatcher over freshly built
// models, as a failover re-dispatch would — must yield byte-identical
// outcome slices.
func TestDispatchIdempotent(t *testing.T) {
	models := sharedModels(t)
	rebuilt, err := agent.BuildModelsIn(modelstore.New(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, app := range agent.AppNames() {
		if models.ByApp[app] == rebuilt.ByApp[app] {
			t.Fatalf("%s: the rebuilt models share the first build's model; nothing was rebuilt", app)
		}
	}
	d := NewLocalDispatcherIn(taskpack.Builtin(), models, 1)
	replica := NewLocalDispatcherIn(taskpack.Builtin(), rebuilt, 1)
	settings := Matrix()
	cells := []Cell{
		{Task: osworld.All()[0].ID, Setting: settings[0].Label, Runs: 3},
		{Task: osworld.All()[0].ID, Setting: settings[len(settings)-1].Label, Runs: 3},
		{Task: osworld.All()[len(osworld.All())-1].ID, Setting: settings[0].Label, Runs: 2},
	}
	for _, cell := range cells {
		first, err := d.Dispatch(context.Background(), cell)
		if err != nil {
			t.Fatalf("%+v: %v", cell, err)
		}
		a, err := json.Marshal(first)
		if err != nil {
			t.Fatal(err)
		}
		again, err := d.Dispatch(context.Background(), cell)
		if err != nil {
			t.Fatalf("%+v re-dispatch: %v", cell, err)
		}
		b, err := json.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(b) {
			t.Errorf("%+v: re-dispatch on the same dispatcher diverged:\n%s\n%s", cell, a, b)
		}
		other, err := replica.Dispatch(context.Background(), cell)
		if err != nil {
			t.Fatalf("%+v on rebuilt models: %v", cell, err)
		}
		c, err := json.Marshal(other)
		if err != nil {
			t.Fatal(err)
		}
		if string(a) != string(c) {
			t.Errorf("%+v: dispatch on freshly built models diverged:\n%s\n%s", cell, a, c)
		}
	}
}

// TestRemoteDispatcherEquivalence: two healthy replicas, full grid — the
// remote report must be byte-identical to the sequential in-process one,
// with cells actually sharded across both backends and zero retries.
func TestRemoteDispatcherEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	a := &testReplica{models: models, failAfter: -1}
	b := &testReplica{models: models, failAfter: -1}
	rd, err := NewRemoteDispatcher(startReplicas(t, a, b), RemoteOptions{InFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("remote report differs from sequential in-process run")
	}
	cells := int64(len(GridCellsIn(taskpack.Builtin(), 3)))
	if a.served.Load()+b.served.Load() != cells {
		t.Errorf("replicas served %d+%d cells, want %d total", a.served.Load(), b.served.Load(), cells)
	}
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Errorf("sharding is lopsided: %d vs %d cells", a.served.Load(), b.served.Load())
	}
	if rd.Retries() != 0 {
		t.Errorf("healthy replicas produced %d retries", rd.Retries())
	}
	checkRetryLedger(t, rd)
	if live := rd.Live(); len(live) != 2 {
		t.Errorf("both replicas should stay live, got %v", live)
	}
}

// TestRemoteDispatcherOneCellEnvelopes pins the single wire path: the
// dispatcher sends every cell as exactly one POST /v1/cells whose body the
// daemon's strict decoder accepts — through a mid-grid replica failure too —
// and the retry ledger balances.
func TestRemoteDispatcherOneCellEnvelopes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	flaky := &testReplica{models: models, failAfter: 10}
	healthy := &testReplica{models: models, failAfter: -1}
	rd, err := NewRemoteDispatcher(startReplicas(t, flaky, healthy), RemoteOptions{InFlight: 4, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("one-cell envelope report differs from sequential in-process run")
	}
	cells := int64(len(GridCellsIn(taskpack.Builtin(), 3)))
	requests := flaky.cellCalls.Load() + healthy.cellCalls.Load()
	if want := cells + flaky.failed.Load(); requests != want {
		t.Errorf("%d cells (%d of them re-sent) travelled in %d requests, want one per attempt",
			cells, flaky.failed.Load(), requests)
	}
	if rd.Retries() < 1 {
		t.Error("the flaky replica's failure was never counted as a re-dispatch")
	}
	checkRetryLedger(t, rd)
}

// TestRemoteDispatcherFailover is the remote failure path of the issue: a
// replica that errors mid-grid is detected, its cells are re-dispatched to
// the surviving replica, and the final report still matches the sequential
// one byte-for-byte (CI runs this under -race). The replica fails either
// with a 5xx or with a 200 that does not echo the cell.
func TestRemoteDispatcherFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	for _, tc := range []struct {
		name      string
		wrongEcho bool
	}{
		{"envelope 5xx", false},
		{"non-echo 200", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			flaky := &testReplica{models: models, failAfter: 10, wrongEcho: tc.wrongEcho} // dies after 10 cells
			healthy := &testReplica{models: models, failAfter: -1}
			rd, err := NewRemoteDispatcher(startReplicas(t, flaky, healthy), RemoteOptions{InFlight: 4})
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
			if err != nil {
				t.Fatalf("failover should absorb the replica failure: %v", err)
			}
			if renderAll(models, got) != renderAll(models, rep) {
				t.Fatal("report after mid-grid failover differs from sequential in-process run")
			}
			for i := range rep.Rows {
				for j, o := range rep.Rows[i].Outcomes {
					if got.Rows[i].Outcomes[j] != o {
						t.Fatalf("row %d outcome %d diverged after failover: %+v != %+v",
							i, j, got.Rows[i].Outcomes[j], o)
					}
				}
			}
			if rd.Retries() < 1 {
				t.Error("the failed cell was never counted as a re-dispatch")
			}
			checkRetryLedger(t, rd)
			cells := int64(len(GridCellsIn(taskpack.Builtin(), 3)))
			if total := flaky.served.Load() + healthy.served.Load(); total != cells {
				t.Errorf("replicas served %d cells, want %d", total, cells)
			}
			stats := rd.Stats()
			if !stats[0].Down || stats[0].Failures < 1 {
				t.Errorf("flaky replica not detected as down: %+v", stats[0])
			}
			if stats[1].Down {
				t.Errorf("healthy replica wrongly marked down: %+v", stats[1])
			}
			if live := rd.Live(); len(live) != 1 {
				t.Errorf("exactly one replica should survive, got %v", live)
			}
		})
	}
}

// TestRemoteDispatcherHangingReplica: a wedged replica (accepts, never
// answers) must be timed out by the client, marked down, and its cells
// re-dispatched — the report still matches.
func TestRemoteDispatcherHangingReplica(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	// One cell per envelope, the dispatcher's only mode.
	t.Run("one_cell", func(t *testing.T) {
		models, rep := sharedReport(t)
		hung := &testReplica{models: models, hang: true, release: make(chan struct{})}
		// Unblock the wedged handlers before the t.Cleanup server shutdowns run
		// (defers fire first), so Close doesn't wait on them.
		defer close(hung.release)
		healthy := &testReplica{models: models, failAfter: -1}
		rd, err := NewRemoteDispatcher(startReplicas(t, hung, healthy), RemoteOptions{
			InFlight: 4,
			Client:   &http.Client{Timeout: 2 * time.Second},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
		if err != nil {
			t.Fatalf("hang detection should absorb the wedged replica: %v", err)
		}
		if renderAll(models, got) != renderAll(models, rep) {
			t.Fatal("report after hang failover differs from sequential in-process run")
		}
		if rd.Retries() < 1 {
			t.Error("timed-out cells were never re-dispatched")
		}
		checkRetryLedger(t, rd)
		if stats := rd.Stats(); !stats[0].Down {
			t.Errorf("hung replica not marked down: %+v", stats[0])
		}
	})
}

// TestRemoteDispatcherAllDown: when every replica fails the run errors out
// instead of spinning.
func TestRemoteDispatcherAllDown(t *testing.T) {
	if testing.Short() {
		t.Skip("grid fan-out over HTTP")
	}
	models, _ := sharedReport(t)
	dead := &testReplica{models: models, failAfter: 0}
	rd, err := NewRemoteDispatcher(startReplicas(t, dead), RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 1, 2); err == nil ||
		!strings.Contains(err.Error(), "all replicas failed") {
		t.Fatalf("run over dead replicas must fail, got %v", err)
	}
	checkRetryLedger(t, rd)
}

// TestRemoteDispatcherBadRequestIsFinal: a 4xx is the request's fault; it
// must surface immediately without downing the replica — whether the
// replica rejects the cell itself or refuses every request (one without the
// /v1 surface answers 404).
func TestRemoteDispatcherBadRequestIsFinal(t *testing.T) {
	if testing.Short() {
		t.Skip("starts HTTP servers")
	}
	models, _ := sharedReport(t)
	valid := Cell{Task: osworld.All()[0].ID, Setting: Matrix()[0].Label, Runs: 1}
	cases := []struct {
		name    string
		replica http.Handler
		cell    Cell
		want    string
	}{
		{"cell 404", &testReplica{models: models, failAfter: -1},
			Cell{Task: "no-such-task", Setting: Matrix()[0].Label, Runs: 1}, "unknown task"},
		{"envelope 404", http.NotFoundHandler(), valid, "status 404"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srv := httptest.NewServer(tc.replica)
			t.Cleanup(srv.Close)
			rd, err := NewRemoteDispatcher([]string{srv.URL}, RemoteOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			_, err = rd.Dispatch(context.Background(), tc.cell)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("the 4xx must surface as the cell's error (%q), got %v", tc.want, err)
			}
			if stats := rd.Stats(); stats[0].Down {
				t.Error("a bad request must not down the replica")
			}
			if rd.Retries() != 0 {
				t.Errorf("a bad request must not retry, got %d retries", rd.Retries())
			}
			checkRetryLedger(t, rd)
		})
	}
}

// TestRemoteDispatcherRejectsNonPositiveRuns: a runs<=0 cell must fail
// before any replica contact — every replica would answer it with the same
// 400.
func TestRemoteDispatcherRejectsNonPositiveRuns(t *testing.T) {
	rd, err := NewRemoteDispatcher([]string{"http://127.0.0.1:1"}, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := rd.Dispatch(context.Background(), Cell{Task: "x", Setting: "y", Runs: 0}); err == nil ||
		!strings.Contains(err.Error(), "must be positive") {
		t.Fatalf("runs=0 cell must be rejected, got %v", err)
	}
	if rd.Stats()[0].Down {
		t.Error("the guard must fire before any replica is contacted")
	}
}

// TestNewRemoteDispatcherValidation rejects unusable replica lists.
func TestNewRemoteDispatcherValidation(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{""},
		{"   "},
		{"not-a-url"},
		{"http://a:1", "http://a:1"}, // duplicate
	}
	for _, urls := range cases {
		if _, err := NewRemoteDispatcher(urls, RemoteOptions{}); err == nil {
			t.Errorf("NewRemoteDispatcher(%q) accepted a bad replica list", urls)
		}
	}
	// Batch coalesces rip frames only; a dispatcher sends one cell per
	// envelope and refuses the option rather than ignoring it.
	if _, err := NewRemoteDispatcher([]string{"http://a:1"}, RemoteOptions{Batch: 2}); err == nil {
		t.Error("NewRemoteDispatcher accepted RemoteOptions.Batch 2")
	}
	rd, err := NewRemoteDispatcher([]string{"http://a:1/", "https://b:2"}, RemoteOptions{Batch: 1})
	if err != nil {
		t.Errorf("valid replica list rejected: %v", err)
	} else {
		rd.Close()
		rd.Close() // Close is idempotent
	}
}

// TestRemoteDispatcherCapacity pins Capacity to the replicas in rotation
// times the per-replica in-flight cap: a down-mark and a removal each take
// one replica's share away.
func TestRemoteDispatcherCapacity(t *testing.T) {
	rd, err := NewRemoteDispatcher([]string{"http://a:1", "http://b:2", "http://c:3"}, RemoteOptions{InFlight: 3, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if got := rd.Capacity(); got != 9 {
		t.Errorf("Capacity() = %d, want 3 replicas × 3 in flight", got)
	}
	rd.markDown(rd.snapshot()[0], errors.New("injected"))
	if got := rd.Capacity(); got != 6 {
		t.Errorf("Capacity() after a down-mark = %d, want 2 live replicas × 3 in flight", got)
	}
	if err := rd.RemoveReplica("http://b:2"); err != nil {
		t.Fatal(err)
	}
	if got := rd.Capacity(); got != 3 {
		t.Errorf("Capacity() after a removal = %d, want 1 live replica × 3 in flight", got)
	}
}

// TestDispatchRacingCloseReturns: Close only stops the probers, so Dispatch
// calls racing it — before, during and after — must all return answered.
func TestDispatchRacingCloseReturns(t *testing.T) {
	urls := startRipReplicas(t, &verdictStub{})
	for round := 0; round < 20; round++ {
		rd, err := NewRemoteDispatcher(urls, RemoteOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rd.Dispatch(context.Background(), Cell{Task: fmt.Sprintf("task-%d", i), Setting: "s", Runs: 1}); err != nil {
					t.Errorf("dispatch racing Close: %v", err)
				}
			}()
			if i == round {
				rd.Close()
			}
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Dispatch calls racing Close never returned", round)
		}
	}
}
