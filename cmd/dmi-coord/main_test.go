package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

func TestBadFlagIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "lots"}, &out, &errb); err == nil {
		t.Fatal("expected a flag-parse error")
	}
	if err := run([]string{"-replicas", "http://a:1", "stray"}, &out, &errb); err == nil {
		t.Fatal("expected an error for a stray positional argument")
	}
	if err := run(nil, &out, &errb); !errors.Is(err, errUsage) {
		t.Fatalf("missing fleet selection should be a usage error, got %v", err)
	}
	if !strings.Contains(errb.String(), "exactly one of -replicas or -membership") {
		t.Errorf("fleet-selection message absent from stderr:\n%s", errb.String())
	}
	if err := run([]string{"-replicas", "http://a:1", "-membership", "members.txt"}, &out, &errb); !errors.Is(err, errUsage) {
		t.Fatalf("both -replicas and -membership should be a usage error, got %v", err)
	}
	if err := run([]string{"-replicas", "not-a-url"}, &out, &errb); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("bad replica URL should be a hard error, got %v", err)
	}
	if err := run([]string{"-replicas", "http://a:1", "-runs", fmt.Sprint(serveproto.MaxRuns + 1)}, &out, &errb); !errors.Is(err, errUsage) {
		t.Fatalf("over-cap -runs should fail at flag parse, got %v", err)
	}
	if !strings.Contains(errb.String(), "per-cell cap") {
		t.Errorf("over-cap message absent from stderr:\n%s", errb.String())
	}
	if err := run([]string{"-replicas", "http://a:1", "-soak", "1s", "-rate", "0"}, &out, &errb); !errors.Is(err, errUsage) {
		t.Fatalf("non-positive -rate with -soak should be a usage error, got %v", err)
	}
	if !strings.Contains(errb.String(), "must be positive with -soak") {
		t.Errorf("bad-rate message absent from stderr:\n%s", errb.String())
	}
	// Every cell travels as its own one-cell envelope; there is no -batch.
	if err := run([]string{"-replicas", "http://a:1", "-batch", "8"}, &out, &errb); !errors.Is(err, errUsage) {
		t.Fatalf("-batch 8 should be a usage error, got %v", err)
	}
	if !strings.Contains(errb.String(), "flag provided but not defined: -batch") {
		t.Errorf("unknown-flag message for -batch absent from stderr:\n%s", errb.String())
	}
	// -runs 0 would dispatch cells every replica rejects (a soak would
	// report every arrival failed); it fails at flag parse like -inflight 0
	// and -timeout 0, which would size the fan-out to zero and leave the
	// client without a timeout.
	for _, bad := range [][]string{
		{"-runs", "0"}, {"-runs", "-1"},
		{"-inflight", "0"}, {"-inflight", "-3"},
		{"-timeout", "0"}, {"-timeout", "-1s"},
	} {
		if err := run(append([]string{"-replicas", "http://a:1"}, bad...), &out, &errb); !errors.Is(err, errUsage) {
			t.Fatalf("%s %s should be a usage error, got %v", bad[0], bad[1], err)
		}
		if !strings.Contains(errb.String(), bad[0]+" "+bad[1]) {
			t.Errorf("%s %s message absent from stderr:\n%s", bad[0], bad[1], errb.String())
		}
	}
	if err := run([]string{"-membership", filepath.Join(t.TempDir(), "absent.txt")}, &out, &errb); err == nil || errors.Is(err, errUsage) {
		t.Fatalf("unreadable membership file should be a hard error, got %v", err)
	}
}

func TestHelpFlagIsNotAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-h"}, &out, &errb); err != nil {
		t.Fatalf("-h should print usage and succeed, got %v", err)
	}
	if !strings.Contains(errb.String(), "Usage") {
		t.Errorf("usage text missing from stderr:\n%s", errb.String())
	}
}

// TestReplicaWithoutPackFailsWait pins the startup pack check: a replica
// that answers ready but does not advertise exactly the run's pack fails
// the health wait, naming the replica, before any cell is dispatched.
func TestReplicaWithoutPackFailsWait(t *testing.T) {
	reg := taskpack.Builtin()
	for _, hz := range []serveproto.Health{
		{OK: true, Apps: 5},
		{OK: true, Apps: 5, Pack: reg.Name()},
		{OK: true, Apps: 5, Pack: "other", PackHash: reg.Hash()},
	} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != serveproto.PathHealthz {
				t.Errorf("%s reached before the health wait passed", r.URL.Path)
			}
			json.NewEncoder(w).Encode(hz)
		}))
		var out, errb bytes.Buffer
		err := run([]string{"-replicas", srv.URL, "-wait", "5s"}, &out, &errb)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "serves task pack") || !strings.Contains(err.Error(), srv.URL) {
			t.Errorf("health %+v: got %v, want a pack error naming %s", hz, err, srv.URL)
		}
	}
}

func TestUnhealthyReplicaTimesOut(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "warming up", http.StatusServiceUnavailable)
	}))
	defer srv.Close()
	var out, errb bytes.Buffer
	err := run([]string{"-replicas", srv.URL, "-wait", "200ms"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "not healthy") {
		t.Fatalf("never-healthy replica should fail startup, got %v", err)
	}
}

// replica is an in-process dmi-serve stand-in speaking the serveproto
// protocol from shared warm models, with injectable failure points.
type replica struct {
	models *agent.Models
	// failAfter starts answering 500 once this many cells were served
	// (-1 = never) — the forced mid-run replica failure of the issue's
	// acceptance criteria. Permanent: /v1/healthz fails with it, so the
	// replica never recovers.
	failAfter int64
	// outage is a switchable outage — envelopes and /v1/healthz both 500
	// while set — so soak tests can take a replica down and bring it back.
	outage    atomic.Bool
	served    atomic.Int64
	cellCalls atomic.Int64 // POST /v1/cells requests received
}

// failing reports whether an injected failure mode is active.
func (rp *replica) failing() bool {
	return rp.outage.Load() || (rp.failAfter >= 0 && rp.served.Load() >= rp.failAfter)
}

func (rp *replica) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(serveproto.PathHealthz, func(w http.ResponseWriter, r *http.Request) {
		if rp.failing() {
			http.Error(w, "injected outage", http.StatusInternalServerError)
			return
		}
		reg := taskpack.Builtin()
		json.NewEncoder(w).Encode(serveproto.Health{OK: true, Apps: len(agent.AppNames()), Pack: reg.Name(), PackHash: reg.Hash()})
	})
	mux.HandleFunc(serveproto.PathStats, func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(serveproto.StatsResponse{
			Sessions:   rp.served.Load(),
			CoreTokens: rp.models.CoreTokens,
		})
	})
	mux.HandleFunc(serveproto.PathCells, func(w http.ResponseWriter, r *http.Request) {
		if rp.failing() {
			http.Error(w, "injected replica failure", http.StatusInternalServerError)
			return
		}
		cr, err := serveproto.DecodeSessionRequest(r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		rp.cellCalls.Add(1)
		set, task, err := bench.ResolveCellIn(taskpack.Builtin(), bench.Cell{App: cr.App, Task: cr.Task, Setting: cr.Setting, Runs: cr.Runs})
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		outcomes := bench.RunCell(rp.models, set, task, cr.Runs, 1)
		rp.served.Add(1)
		json.NewEncoder(w).Encode(serveproto.SessionResponse{
			App: task.App, Task: task.ID, Setting: set.Label, Runs: cr.Runs, Outcomes: outcomes,
		})
	})
	return mux
}

var (
	groundOnce   sync.Once
	groundModels *agent.Models
	groundOut    string // dmi-bench-shaped report for runs=1
)

// groundTruth builds the in-process reference the coordinator's stdout must
// match byte-for-byte: the same sections dmi-bench prints by default.
func groundTruth(t *testing.T) (*agent.Models, string) {
	t.Helper()
	groundOnce.Do(func() {
		models, err := agent.BuildModelsIn(modelstore.New(), 0)
		if err != nil {
			t.Fatal(err)
		}
		rep := bench.Run(models, 1)
		var buf bytes.Buffer
		rep.WriteTable3(&buf)
		fmt.Fprintln(&buf)
		rep.WriteFig5(&buf)
		rep.WriteFig6(&buf)
		fmt.Fprintln(&buf)
		rep.WriteOneShot(&buf)
		fmt.Fprintln(&buf)
		rep.WriteTokens(&buf, models)
		groundModels, groundOut = models, buf.String()
	})
	if groundModels == nil {
		t.Fatal("ground truth unavailable")
	}
	return groundModels, groundOut
}

// TestCoordinatorByteIdentical is the acceptance criterion at the binary
// boundary: dmi-coord against two replicas emits a report byte-identical to
// the in-process bench.Run, and the stderr telemetry records the fan-out.
func TestCoordinatorByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling plus full-grid fan-out")
	}
	models, want := groundTruth(t)
	a := &replica{models: models, failAfter: -1}
	b := &replica{models: models, failAfter: -1}
	srvA, srvB := httptest.NewServer(a.handler()), httptest.NewServer(b.handler())
	defer srvA.Close()
	defer srvB.Close()

	var out, errb bytes.Buffer
	err := run([]string{
		"-replicas", srvA.URL + "," + srvB.URL,
		"-runs", "1",
		"-inflight", "3",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("coordinator failed: %v\nstderr:\n%s", err, errb.String())
	}
	if out.String() != want {
		t.Errorf("coordinator report is not byte-identical to in-process bench.Run\n--- coord ---\n%s\n--- in-process ---\n%s",
			out.String(), want)
	}
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Errorf("cells were not sharded across both replicas: %d vs %d", a.served.Load(), b.served.Load())
	}
	cells := int64(len(bench.GridCellsIn(taskpack.Builtin(), 1)))
	if total := a.served.Load() + b.served.Load(); total != cells {
		t.Errorf("replicas served %d cells, want %d", total, cells)
	}
	for _, fragment := range []string{"cells/s), 0 re-dispatches", "warm-hit ratio", srvA.URL, srvB.URL} {
		if !strings.Contains(errb.String(), fragment) {
			t.Errorf("coordination telemetry missing %q:\n%s", fragment, errb.String())
		}
	}
	// Every cell travels as its own request.
	if calls := a.cellCalls.Load() + b.cellCalls.Load(); calls != cells {
		t.Errorf("%d cells travelled in %d requests, want one per cell", cells, calls)
	}
}

// TestCoordinatorSurvivesReplicaFailure forces one replica to die mid-run:
// the coordinator must detect it, re-dispatch its cells to the survivor,
// and still emit the byte-identical report.
func TestCoordinatorSurvivesReplicaFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling plus full-grid fan-out")
	}
	models, want := groundTruth(t)
	flaky := &replica{models: models, failAfter: 7}
	healthy := &replica{models: models, failAfter: -1}
	srvF, srvH := httptest.NewServer(flaky.handler()), httptest.NewServer(healthy.handler())
	defer srvF.Close()
	defer srvH.Close()

	var out, errb bytes.Buffer
	err := run([]string{
		"-replicas", srvF.URL + "," + srvH.URL,
		"-runs", "1",
	}, &out, &errb)
	if err != nil {
		t.Fatalf("coordinator should survive one replica failure: %v\nstderr:\n%s", err, errb.String())
	}
	if out.String() != want {
		t.Error("report after mid-run replica failure is not byte-identical to in-process bench.Run")
	}
	if !strings.Contains(errb.String(), "down") {
		t.Errorf("telemetry should mark the failed replica down:\n%s", errb.String())
	}
	cells := int64(len(bench.GridCellsIn(taskpack.Builtin(), 1)))
	if total := flaky.served.Load() + healthy.served.Load(); total != cells {
		t.Errorf("replicas served %d cells, want %d", total, cells)
	}
}

// TestMembershipReload drives the SIGHUP reload logic directly: the file is
// re-read, diffed against the current fleet, and per-line problems are
// logged without failing the reload.
func TestMembershipReload(t *testing.T) {
	rd, err := bench.NewRemoteDispatcher([]string{"http://a:1"}, bench.RemoteOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	path := filepath.Join(t.TempDir(), "members.txt")
	write := func(content string) {
		t.Helper()
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var errb bytes.Buffer

	write("# the fleet\nhttp://a:1\nhttp://b:2/\n\n")
	if err := reloadMembership(rd, path, &errb); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := rd.Members(); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("Members() after add = %v", got)
	}

	// a drops out, c joins; a malformed line is logged and skipped.
	write("not a url\nhttp://b:2\nhttp://c:3\n")
	if err := reloadMembership(rd, path, &errb); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := rd.Members(); len(got) != 2 || got[0] != "http://b:2" || got[1] != "http://c:3" {
		t.Fatalf("Members() after swap = %v", got)
	}
	if !strings.Contains(errb.String(), "not a url") {
		t.Errorf("malformed line not reported:\n%s", errb.String())
	}

	// a comes back: revived, not duplicated.
	write("http://a:1\nhttp://b:2\nhttp://c:3\n")
	if err := reloadMembership(rd, path, &errb); err != nil {
		t.Fatalf("reload: %v", err)
	}
	if got := rd.Members(); len(got) != 3 {
		t.Fatalf("Members() after revive = %v", got)
	}
	if stats := rd.Stats(); len(stats) != 3 {
		t.Fatalf("revive must reuse the membership slot, not append: %+v", stats)
	}

	// An unreadable or empty file fails the reload and leaves the fleet as-is.
	if err := reloadMembership(rd, filepath.Join(t.TempDir(), "absent.txt"), &errb); err == nil {
		t.Error("missing membership file must fail the reload")
	}
	write("# nothing\n")
	if err := reloadMembership(rd, path, &errb); err == nil {
		t.Error("empty membership file must fail the reload")
	}
	if got := rd.Members(); len(got) != 3 {
		t.Errorf("failed reload must not change the fleet: %v", got)
	}
}

// TestCoordinatorStreamMembership: the -membership path at the binary
// boundary — the capacity-paced feeder over a file-selected fleet still
// emits the byte-identical report.
func TestCoordinatorStreamMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling plus full-grid fan-out")
	}
	models, want := groundTruth(t)
	a := &replica{models: models, failAfter: -1}
	b := &replica{models: models, failAfter: -1}
	srvA, srvB := httptest.NewServer(a.handler()), httptest.NewServer(b.handler())
	defer srvA.Close()
	defer srvB.Close()
	path := filepath.Join(t.TempDir(), "members.txt")
	if err := os.WriteFile(path, []byte(srvA.URL+"\n"+srvB.URL+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errb bytes.Buffer
	err := run([]string{"-membership", path, "-runs", "1"}, &out, &errb)
	if err != nil {
		t.Fatalf("streaming coordinator failed: %v\nstderr:\n%s", err, errb.String())
	}
	if out.String() != want {
		t.Error("streaming report is not byte-identical to in-process bench.Run")
	}
	if a.served.Load() == 0 || b.served.Load() == 0 {
		t.Errorf("stream did not shard across the fleet: %d vs %d", a.served.Load(), b.served.Load())
	}
	if !strings.Contains(errb.String(), "paced by fleet capacity") {
		t.Errorf("telemetry should name the capacity-paced mode:\n%s", errb.String())
	}
}

// soakDoneGate is the pattern CI's soak round greps the coordinator's log
// for (ci.yml, coord-integration): a summary line with at least one
// recovery.
var soakDoneGate = regexp.MustCompile(`soak done .*; [1-9][0-9]* recoveries,`)

// TestCoordinatorSoakRecovery is the acceptance scenario for -soak: one
// replica goes down mid-soak and comes back; the half-open prober must
// return it to rotation (Recoveries ≥ 1) and it must serve further cells,
// while the open-loop arrival process rides through the outage. The
// summary line the soak prints must pass CI's recovery grep.
func TestCoordinatorSoakRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling plus a multi-second soak")
	}
	models, _ := groundTruth(t)
	steady := &replica{models: models, failAfter: -1}
	flappy := &replica{models: models, failAfter: -1}
	srvA, srvB := httptest.NewServer(steady.handler()), httptest.NewServer(flappy.handler())
	defer srvA.Close()
	defer srvB.Close()
	rd, err := bench.NewRemoteDispatcher([]string{srvA.URL, srvB.URL}, bench.RemoteOptions{ProbeInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	// Outage window: down early in the soak, back with plenty of soak left
	// for the 20ms-base prober to recover it and route cells to it again.
	go func() {
		time.Sleep(200 * time.Millisecond)
		flappy.outage.Store(true)
		time.Sleep(300 * time.Millisecond)
		flappy.outage.Store(false)
	}()

	ss, err := runSoak(context.Background(), rd, taskpack.Builtin(), 2500*time.Millisecond, 40, 1)
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if ss.Arrivals == 0 || ss.Completed == 0 {
		t.Errorf("soak saw no traffic: %+v", ss)
	}
	if ss.Recoveries < 1 {
		t.Errorf("the flapped replica never recovered: %+v", ss)
	}
	if ss.DownSeconds <= 0 {
		t.Errorf("down time not recorded: %+v", ss)
	}
	if ss.LatencyP50Ms <= 0 || ss.LatencyP99Ms < ss.LatencyP50Ms {
		t.Errorf("latency percentiles out of shape: %+v", ss)
	}
	if flappy.served.Load() == 0 {
		t.Error("the flapped replica never served a cell")
	}
	// The open loop must ride through the outage: the survivor absorbs
	// re-dispatched cells, so arrivals overwhelmingly complete.
	if ss.Failed > ss.Arrivals/2 {
		t.Errorf("too many failed arrivals for a one-replica outage: %+v", ss)
	}

	var summary bytes.Buffer
	ss.writeSummary(&summary)
	if !soakDoneGate.MatchString(summary.String()) {
		t.Errorf("soak summary fails CI's recovery grep %q:\n%s", soakDoneGate, summary.String())
	}
	// The grep must also reject a soak without recoveries.
	ss.Recoveries = 0
	summary.Reset()
	ss.writeSummary(&summary)
	if soakDoneGate.MatchString(summary.String()) {
		t.Errorf("CI's recovery grep accepts a soak with no recoveries:\n%s", summary.String())
	}

	// The -soak flag drives the same harness and prints the same summary.
	var out, errb bytes.Buffer
	if err := run([]string{"-replicas", srvA.URL, "-runs", "1", "-soak", "300ms", "-rate", "20"}, &out, &errb); err != nil {
		t.Fatalf("-soak run failed: %v\nstderr:\n%s", err, errb.String())
	}
	if !strings.Contains(errb.String(), "soak done") || !strings.Contains(errb.String(), srvA.URL) {
		t.Errorf("soak summary or replica line missing from telemetry:\n%s", errb.String())
	}
}
