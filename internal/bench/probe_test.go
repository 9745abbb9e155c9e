package bench

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// waitForRecovery polls until the replica at stats index i reports at least
// one recovery, or the deadline passes.
func waitForRecovery(t *testing.T, rd *RemoteDispatcher, i int, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for time.Now().Before(deadline) {
		if rd.Stats()[i].Recoveries >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("replica %d never recovered within %s: %+v", i, within, rd.Stats()[i])
}

// TestRemoteDispatcherRecovery is the half-open circuit acceptance test
// (run under -race in CI): a replica that fails mid-grid is down-marked,
// the run completes byte-identical on the survivor, the prober brings the
// failed replica back once its /v1/healthz answers ready, and the recovered
// replica serves further cells.
func TestRemoteDispatcherRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	flaky := &testReplica{models: models, failAfter: 3, probesToRecover: 2, instance: "flaky-1"}
	healthy := &testReplica{models: models, failAfter: -1}
	rd, err := NewRemoteDispatcher(startReplicas(t, flaky, healthy), RemoteOptions{
		InFlight:      4,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("report with a mid-run recovery differs from sequential in-process run")
	}
	waitForRecovery(t, rd, 0, 10*time.Second)
	stats := rd.Stats()
	if stats[0].Down {
		t.Errorf("recovered replica still marked down: %+v", stats[0])
	}
	if stats[0].DownSeconds <= 0 {
		t.Errorf("down duration not recorded: %+v", stats[0])
	}
	if live := rd.Live(); len(live) != 2 {
		t.Errorf("both replicas should be in rotation after recovery, got %v", live)
	}
	checkRetryLedger(t, rd)
	// The recovered replica must actually serve again: with two live
	// replicas and round-robin tie-breaking, four sequential cells cannot
	// all land on the survivor.
	cell := Cell{Task: osworld.All()[0].ID, Setting: Matrix()[0].Label, Runs: 1}
	before := flaky.served.Load()
	for i := 0; i < 4; i++ {
		if _, err := rd.Dispatch(context.Background(), cell); err != nil {
			t.Fatalf("dispatch after recovery: %v", err)
		}
	}
	if flaky.served.Load() <= before {
		t.Error("recovered replica never served a cell after rejoining rotation")
	}
}

// TestRemoteDispatcher409Misclassification pins the 409 triage fix: only a
// well-formed PackMismatch body with its replica-side fields filled in is a
// pack verdict. A proxy error page or a zero-valued JSON object arriving as
// 409 is a broken backend — down-mark it and re-dispatch the cell, instead
// of aborting the run with a bogus mismatch or a final request error.
func TestRemoteDispatcher409Misclassification(t *testing.T) {
	if testing.Short() {
		t.Skip("starts HTTP servers")
	}
	models, _ := sharedReport(t)
	cell := Cell{Task: osworld.All()[0].ID, Setting: Matrix()[0].Label, Runs: 1}
	cases := []struct {
		name, body string
	}{
		{"proxy html body", "<html>502 Bad Gateway</html>"},
		{"empty pack fields", `{"want_pack":"","want_hash":"","have_pack":"","have_hash":""}`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			bad := &testReplica{models: models, failAfter: -1, conflictBody: tc.body}
			good := &testReplica{models: models, failAfter: -1}
			rd, err := NewRemoteDispatcher(startReplicas(t, bad, good), RemoteOptions{ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			outcomes, err := rd.Dispatch(context.Background(), cell)
			if err != nil {
				t.Fatalf("malformed 409 must fail over, not abort: %v", err)
			}
			if len(outcomes) != 1 {
				t.Fatalf("%d outcomes from the failover, want 1", len(outcomes))
			}
			stats := rd.Stats()
			if !stats[0].Down {
				t.Errorf("replica answering malformed 409s not marked down: %+v", stats[0])
			}
			if stats[1].Down {
				t.Errorf("healthy failover replica wrongly down: %+v", stats[1])
			}
			if rd.Retries() != 1 {
				t.Errorf("Retries() = %d, want 1", rd.Retries())
			}
			checkRetryLedger(t, rd)
		})
	}
	t.Run("well-formed mismatch is still final", func(t *testing.T) {
		bad := &testReplica{models: models, failAfter: -1,
			conflictBody: `{"want_pack":"osworld-w","want_hash":"abc","have_pack":"other-pack","have_hash":"deadbeef"}`}
		good := &testReplica{models: models, failAfter: -1}
		rd, err := NewRemoteDispatcher(startReplicas(t, bad, good), RemoteOptions{ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		_, err = rd.Dispatch(context.Background(), cell)
		var mismatch *PackMismatchError
		if !errors.As(err, &mismatch) {
			t.Fatalf("well-formed 409 must surface as PackMismatchError, got %v", err)
		}
		if mismatch.HavePack != "other-pack" {
			t.Errorf("mismatch names pack %q, want %q", mismatch.HavePack, "other-pack")
		}
		if rd.Stats()[0].Down {
			t.Error("a pack mismatch is a configuration error, not a replica failure — no down-mark")
		}
		checkRetryLedger(t, rd)
	})
}

// echoReplica is a minimal protocol stub: it answers every POST /v1/cells
// with the requested number of zero outcomes and /v1/healthz with ready. No
// models, so tie-break and membership tests stay cheap.
type echoReplica struct {
	served atomic.Int64
}

func (er *echoReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == serveproto.PathHealthz {
		writeJSON(w, serveproto.Health{OK: true, Apps: 1})
		return
	}
	c, err := serveproto.DecodeSessionRequest(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	er.served.Add(1)
	writeJSON(w, serveproto.SessionResponse{
		App: c.App, Task: c.Task, Setting: c.Setting, Runs: c.Runs,
		Outcomes: make([]agent.Outcome, c.Runs),
	})
}

// TestPickTieBreakRoundRobin pins the tie-break fix: sequential dispatches
// (every replica at load 0, a permanent tie) must rotate across the fleet
// instead of all landing on replica 0.
func TestPickTieBreakRoundRobin(t *testing.T) {
	replicas := []*echoReplica{{}, {}, {}}
	urls := make([]string, len(replicas))
	for i, er := range replicas {
		srv := httptest.NewServer(er)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	rd, err := NewRemoteDispatcher(urls, RemoteOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	cell := Cell{Task: "t", Setting: "s", Runs: 1}
	for i := 0; i < 9; i++ {
		if _, err := rd.Dispatch(context.Background(), cell); err != nil {
			t.Fatalf("dispatch %d: %v", i, err)
		}
	}
	for i, er := range replicas {
		if n := er.served.Load(); n != 3 {
			t.Errorf("replica %d served %d cells, want 3 (equal-load ties must rotate)", i, n)
		}
	}
}

// packHealth is a /v1/healthz stub that answers ready, advertising whatever
// pack identity it currently holds.
type packHealth struct {
	mu         sync.Mutex
	pack, hash string
	probes     atomic.Int64
}

func (ph *packHealth) advertise(pack, hash string) {
	ph.mu.Lock()
	ph.pack, ph.hash = pack, hash
	ph.mu.Unlock()
}

func (ph *packHealth) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	ph.probes.Add(1)
	ph.mu.Lock()
	hz := serveproto.Health{OK: true, Apps: 1, Pack: ph.pack, PackHash: ph.hash}
	ph.mu.Unlock()
	writeJSON(w, hz)
}

// TestProbeRequiresAdvertisedPack pins the prober's pack check: once the
// run names a pack, a down-marked replica rejoins rotation only when its
// health body advertises exactly that pack — advertising none, another
// pack, or another hash keeps it down. A dispatcher built without a pack
// skips the check.
func TestProbeRequiresAdvertisedPack(t *testing.T) {
	probed := func(t *testing.T, ph *packHealth, n int64) {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); ph.probes.Load() < n; {
			if time.Now().After(deadline) {
				t.Fatalf("only %d probes arrived, want %d", ph.probes.Load(), n)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for _, tc := range []struct{ name, pack, hash string }{
		{"no pack advertised", "", ""},
		{"pack without hash", "p", ""},
		{"other pack", "other", "aa"},
		{"other hash", "p", "bb"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ph := &packHealth{pack: tc.pack, hash: tc.hash}
			rd, err := NewRemoteDispatcher(startRipReplicas(t, ph), RemoteOptions{
				ProbeInterval: time.Millisecond, Pack: "p", PackHash: "aa",
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rd.Close()
			rd.markDown(rd.snapshot()[0], errors.New("injected"))
			probed(t, ph, 3)
			if st := rd.Stats()[0]; !st.Down || st.Recoveries != 0 {
				t.Fatalf("replica advertising pack %q hash %q rejoined a run on p/aa: %+v", tc.pack, tc.hash, st)
			}
			ph.advertise("p", "aa")
			waitForRecovery(t, rd, 0, 10*time.Second)
		})
	}
	t.Run("dispatcher without a pack", func(t *testing.T) {
		ph := &packHealth{}
		rd, err := NewRemoteDispatcher(startRipReplicas(t, ph), RemoteOptions{ProbeInterval: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		rd.markDown(rd.snapshot()[0], errors.New("injected"))
		waitForRecovery(t, rd, 0, 10*time.Second)
	})
}
