package bench

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/serveproto"
	"repro/internal/ung"
)

// ripReplica is an httptest-backed rip replica: it answers POST /v1/rip by
// running real ung.ExpandFrame calls against its own app instance — exactly
// what the daemon's pooled instance does — with the same injectable failure
// modes as testReplica. One instance per replica mirrors production: each
// replica accumulates its own expansion history, and the merged graph must
// come out byte-identical anyway.
type ripReplica struct {
	app     string
	mu      sync.Mutex
	inst    *appkit.App
	factory func() *appkit.App

	// failAfter starts answering 500 (rip and health alike) once this many
	// envelopes have been served (-1 = never fail) — the kill-mid-rip knob.
	failAfter int64
	// conflictBody, when set, answers every envelope with 409 and this raw
	// body.
	conflictBody string
	// rejectID, when set, answers that frame with a per-frame 400 while its
	// envelope-mates still expand.
	rejectID string

	envelopes atomic.Int64 // envelopes served
	frames    atomic.Int64 // frames expanded inside them
	failed    atomic.Int64 // injected envelope failures
	probes    atomic.Int64 // /v1/healthz requests received
}

func newRipReplica(app string) *ripReplica {
	factory := agent.Factories()[app]
	return &ripReplica{app: app, factory: factory, inst: factory(), failAfter: -1}
}

func (rr *ripReplica) failing() bool {
	return rr.failAfter >= 0 && rr.envelopes.Load() >= rr.failAfter
}

func (rr *ripReplica) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == serveproto.PathHealthz {
		rr.probes.Add(1)
		if rr.failing() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serveproto.Health{OK: true, Apps: 1})
		return
	}
	if r.URL.Path != serveproto.PathRip || r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	if rr.failing() {
		rr.failed.Add(1)
		http.Error(w, "injected outage", http.StatusInternalServerError)
		return
	}
	if rr.conflictBody != "" {
		rr.failed.Add(1)
		w.WriteHeader(http.StatusConflict)
		fmt.Fprint(w, rr.conflictBody)
		return
	}
	body := new(bytes.Buffer)
	body.ReadFrom(r.Body)
	req, err := serveproto.ParseRipRequest(body.Bytes())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := serveproto.RipResponse{App: req.App, Context: req.Context}
	rr.mu.Lock()
	for _, f := range req.Frames {
		if f.ID == rr.rejectID && rr.rejectID != "" {
			resp.Results = append(resp.Results, serveproto.RipResult{
				Status: http.StatusBadRequest, Error: "injected frame rejection"})
			continue
		}
		exp := ung.ExpandFrame(rr.inst, req.Context, ung.Frame{ID: f.ID, Path: f.Path})
		we := serveproto.FromExpansion(exp)
		resp.Results = append(resp.Results, serveproto.RipResult{Status: http.StatusOK, Expansion: &we})
		rr.frames.Add(1)
	}
	rr.mu.Unlock()
	rr.envelopes.Add(1)
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// ripGraphBytes snapshots a graph for byte comparison.
func ripGraphBytes(t *testing.T, g *ung.Graph) []byte {
	t.Helper()
	data, err := ung.EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestRipShardedMatchesSequential is the distributed half of the merge
// determinism contract: ung.RipDispatched over a RemoteExpander sharding
// across 1, 2, and 4 replicas must produce a graph byte-identical to the
// sequential ung.Rip — same snapshot bytes, every replica carrying its own
// instance history.
func TestRipShardedMatchesSequential(t *testing.T) {
	const app = "Settings"
	factory := agent.Factories()[app]
	seq, _, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ripGraphBytes(t, seq)

	for _, n := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("replicas=%d", n), func(t *testing.T) {
			reps := make([]*ripReplica, n)
			handlers := make([]http.Handler, n)
			for i := range reps {
				reps[i] = newRipReplica(app)
				handlers[i] = reps[i]
			}
			urls := startRipReplicas(t, handlers...)
			re, err := NewRemoteExpander(urls, app, RemoteOptions{Batch: 8})
			if err != nil {
				t.Fatal(err)
			}
			g, st, err := ung.RipDispatched(factory(), ung.Config{}, re)
			if err != nil {
				t.Fatal(err)
			}
			if got := ripGraphBytes(t, g); !bytes.Equal(got, want) {
				t.Fatalf("sharded graph (%d replicas) is not byte-identical to sequential: %d vs %d bytes",
					n, len(got), len(want))
			}
			if st.Clicks == 0 || st.Workers == 0 {
				t.Errorf("folded stats look empty: %+v", st)
			}
			var served int64
			for _, rep := range reps {
				served += rep.frames.Load()
			}
			// Every expanded frame was served by exactly one replica (no
			// retries happened here), and with n > 1 the work actually spread.
			var cells int
			for _, rs := range re.Stats() {
				cells += rs.Cells
			}
			if served == 0 {
				t.Error("replicas expanded no frames")
			}
			if cells != int(served) {
				t.Errorf("dispatcher counted %d frames, replicas served %d", cells, served)
			}
			if n > 1 {
				busy := 0
				for _, rep := range reps {
					if rep.frames.Load() > 0 {
						busy++
					}
				}
				if busy < 2 {
					t.Errorf("only %d of %d replicas did work", busy, n)
				}
			}
		})
	}
}

// TestRipShardedFailover kills a replica mid-rip: after it has served a few
// envelopes it starts failing (health endpoint too, so it stays down). The
// expander must down-mark it, re-dispatch the lost envelopes to the
// survivor, and still merge a byte-identical graph — the idempotent
// re-dispatch argument, exercised.
func TestRipShardedFailover(t *testing.T) {
	const app = "Settings"
	factory := agent.Factories()[app]
	seq, _, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want := ripGraphBytes(t, seq)

	dying := newRipReplica(app)
	dying.failAfter = 2
	healthy := newRipReplica(app)
	urls := startRipReplicas(t, dying, healthy)
	re, err := NewRemoteExpander(urls, app, RemoteOptions{Batch: 4, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	g, _, err := ung.RipDispatched(factory(), ung.Config{}, re)
	if err != nil {
		t.Fatal(err)
	}
	if got := ripGraphBytes(t, g); !bytes.Equal(got, want) {
		t.Fatal("graph after mid-rip replica death is not byte-identical to sequential")
	}
	if re.Retries() == 0 {
		t.Error("no retries recorded despite a replica dying mid-rip")
	}
	var downFailures int
	for _, rs := range re.Stats() {
		if strings.Contains(rs.BaseURL, urls[0]) {
			if !rs.Down {
				t.Error("dying replica was never down-marked")
			}
			downFailures = rs.Failures
		}
	}
	if downFailures == 0 {
		t.Error("dying replica shows no failures")
	}
	if healthy.frames.Load() == 0 {
		t.Error("survivor expanded nothing")
	}
}

// TestRipShardedAllDown drives the rip against a fleet with no live
// replicas: every expansion fails, RipDispatched folds the expander and
// surfaces the error, and no sender goroutines are left behind.
func TestRipShardedAllDown(t *testing.T) {
	const app = "Settings"
	factory := agent.Factories()[app]
	dead := newRipReplica(app)
	dead.failAfter = 0
	urls := startRipReplicas(t, dead)
	before := runtime.NumGoroutine()
	tr := &http.Transport{}
	re, err := NewRemoteExpander(urls, app, RemoteOptions{
		ProbeInterval: -1,
		Client:        &http.Client{Transport: tr, Timeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = ung.RipDispatched(factory(), ung.Config{}, re)
	if err == nil {
		t.Fatal("rip against a dead fleet did not fail")
	}
	if !strings.Contains(err.Error(), "replicas") {
		t.Errorf("error does not name the fleet condition: %v", err)
	}
	// RipDispatched folded the expander on the error path; the sender pool
	// and prober goroutines must be gone (idle keep-alive conns aside).
	tr.CloseIdleConnections()
	waitForGoroutines(t, before)
}

// TestRipShardedNodeLimit aborts a distributed rip on the node-limit safety
// valve: in-flight remote expansions run to completion but are not counted —
// the error-path stats describe the graph returned, whose applied
// expansions' clicks land there because the abort comes after some were
// applied — undispatched frames are dropped, and no goroutine or channel
// leaks survive the abort.
func TestRipShardedNodeLimit(t *testing.T) {
	const app = "Settings"
	factory := agent.Factories()[app]
	// Size the limit so the abort lands mid-rip — past the seeded initial
	// screens, after remote expansions have been consumed — rather than
	// during seeding, where no envelope has landed yet.
	seq, _, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	limit := seq.NodeCount() / 2
	rep := newRipReplica(app)
	urls := startRipReplicas(t, rep)
	before := runtime.NumGoroutine()
	tr := &http.Transport{}
	re, err := NewRemoteExpander(urls, app, RemoteOptions{
		Batch:  4,
		Client: &http.Client{Transport: tr, Timeout: time.Minute},
	})
	if err != nil {
		t.Fatal(err)
	}
	g, st, err := ung.RipDispatched(factory(), ung.Config{MaxNodes: limit}, re)
	if err == nil {
		t.Fatal("node limit not enforced under distributed rip")
	}
	if g.NodeCount() <= limit {
		t.Fatalf("abort fired at %d nodes, below the %d limit", g.NodeCount(), limit)
	}
	if st.Clicks == 0 {
		t.Error("error-path stats lost the applied expansions' clicks")
	}
	tr.CloseIdleConnections()
	waitForGoroutines(t, before)
}

// TestRemoteExpanderPackMismatchFinal pins the 409 verdict rule on the rip
// path: a well-formed PackMismatch body is the replica's considered answer —
// a final per-frame error, with the replica left in rotation.
func TestRemoteExpanderPackMismatchFinal(t *testing.T) {
	const app = "Settings"
	rep := newRipReplica(app)
	mismatch, _ := json.Marshal(serveproto.PackMismatch{
		WantPack: "osworld-w", WantHash: "aaaa",
		HavePack: "other-pack", HaveHash: "bbbb",
	})
	rep.conflictBody = string(mismatch)
	urls := startRipReplicas(t, rep)
	re, err := NewRemoteExpander(urls, app, RemoteOptions{Pack: "osworld-w", PackHash: "aaaa"})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	res := <-re.Expand("", ung.Frame{ID: "x"})
	var pm *PackMismatchError
	if !errors.As(res.Err, &pm) {
		t.Fatalf("want PackMismatchError, got %v", res.Err)
	}
	for _, rs := range re.Stats() {
		if rs.Down || rs.Failures != 0 {
			t.Errorf("pack mismatch must not down-mark: %+v", rs)
		}
	}
	if re.Retries() != 0 {
		t.Errorf("pack mismatch must not re-dispatch, got %d retries", re.Retries())
	}

	// A malformed 409 body, by contrast, reads as a replica failure.
	rep2 := newRipReplica(app)
	rep2.conflictBody = `{"ok":`
	urls2 := startRipReplicas(t, rep2)
	re2, err := NewRemoteExpander(urls2, app, RemoteOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	res = <-re2.Expand("", ung.Frame{ID: "x"})
	if errors.As(res.Err, &pm) {
		t.Fatal("malformed 409 body must not read as a pack mismatch")
	}
	if res.Err == nil {
		t.Fatal("malformed 409 delivered a result")
	}
	downed := false
	for _, rs := range re2.Stats() {
		downed = downed || rs.Down
	}
	if !downed {
		t.Error("malformed 409 must down-mark the replica")
	}
}

// TestRemoteExpanderFrameRejectionFinal pins per-frame 4xx independence: a
// rejected frame's error is final (no re-dispatch, no down-mark) while its
// envelope-mates' expansions are delivered normally.
func TestRemoteExpanderFrameRejectionFinal(t *testing.T) {
	const app = "Settings"
	rep := newRipReplica(app)
	rep.rejectID = "definitely-bad"
	urls := startRipReplicas(t, rep)
	re, err := NewRemoteExpander(urls, app, RemoteOptions{Batch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	// Same context, pushed together: the stack coalesces them into one
	// envelope (batch 2), so the rejection and the expansion share a round
	// trip.
	good := re.Expand("", ung.Frame{ID: "no-such-control"})
	bad := re.Expand("", ung.Frame{ID: "definitely-bad"})
	if res := <-bad; res.Err == nil || !strings.Contains(res.Err.Error(), "definitely-bad") {
		t.Errorf("rejected frame: %+v", res)
	}
	if res := <-good; res.Err != nil {
		t.Errorf("envelope-mate of a rejected frame failed: %v", res.Err)
	} else if res.Expansion.Outcome != ung.ExpandSkipped {
		t.Errorf("unknown control should expand to a skip, got %v", res.Expansion.Outcome)
	}
	if re.Retries() != 0 {
		t.Errorf("per-frame rejection must not re-dispatch, got %d retries", re.Retries())
	}
	for _, rs := range re.Stats() {
		if rs.Down || rs.Failures != 0 {
			t.Errorf("per-frame rejection must not down-mark: %+v", rs)
		}
	}
}

// TestRemoteExpanderCloseDropsUndispatched closes an expander with frames
// still parked on its stack: Close returns without delivering them (their
// buffered channels are garbage collected), is idempotent, and reports the
// sender pool's width both times.
func TestRemoteExpanderCloseDropsUndispatched(t *testing.T) {
	const app = "Settings"
	rep := newRipReplica(app)
	urls := startRipReplicas(t, rep)
	re, err := NewRemoteExpander(urls, app, RemoteOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// One frame we wait on, so at least one envelope lands...
	res := <-re.Expand("", ung.Frame{ID: "no-such-control"})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	// ...then a pile we never read before closing.
	for i := 0; i < 50; i++ {
		re.Expand("", ung.Frame{ID: fmt.Sprintf("ghost-%d", i)})
	}
	st1 := re.Close()
	st2 := re.Close()
	if st1 != st2 {
		t.Errorf("Close is not idempotent: %+v vs %+v", st1, st2)
	}
	if st1.Workers == 0 {
		t.Errorf("Close lost the sender count: %+v", st1)
	}
}

// startRipReplicas serves each handler on an httptest server and returns the
// base URLs.
func startRipReplicas(t *testing.T, handlers ...http.Handler) []string {
	t.Helper()
	urls := make([]string, len(handlers))
	for i, h := range handlers {
		srv := httptest.NewServer(h)
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return urls
}

// waitForGoroutines polls until the goroutine count returns to (roughly) the
// baseline, failing if leaked senders or probers persist.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		// httptest keep-alive conns and the test runner itself wobble by a
		// few goroutines; a leak of the sender pool would exceed that.
		if runtime.NumGoroutine() <= baseline+3 {
			return
		}
		if time.Now().After(deadline) {
			t.Errorf("goroutines leaked: %d before, %d after", baseline, runtime.NumGoroutine())
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}
