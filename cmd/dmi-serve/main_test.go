package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

func TestBadFlagIsAnError(t *testing.T) {
	var errb bytes.Buffer
	if err := run([]string{"-budget", "lots"}, &errb); err == nil {
		t.Fatal("expected a flag-parse error")
	}
	if err := run([]string{"stray"}, &errb); err == nil {
		t.Fatal("expected an error for a stray positional argument")
	}
}

func TestHelpFlagIsNotAnError(t *testing.T) {
	var errb bytes.Buffer
	if err := run([]string{"-h"}, &errb); err != nil {
		t.Fatalf("-h should print usage and succeed, got %v", err)
	}
	if !strings.Contains(errb.String(), "Usage") {
		t.Errorf("usage text missing from stderr:\n%s", errb.String())
	}
}

// syncBuffer lets the test read the daemon's stderr while run() writes it.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// postCell posts one cell to POST /v1/cells and returns the status and raw
// body.
func postCell(base string, cell serveproto.SessionRequest) (int, []byte, error) {
	body, err := json.Marshal(cell)
	if err != nil {
		return 0, nil, err
	}
	resp, err := http.Post(base+serveproto.PathCells, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// TestServeDaemon is the serving-tier acceptance test, driven through run()
// at the binary boundary: a budget that cannot hold the whole catalog,
// concurrent POST /v1/cells traffic over all five apps, responses
// byte-identical to the in-process evaluation, and /v1/stats showing ≥1
// eviction and ≥1 snapshot reload. CI runs it under -race.
func TestServeDaemon(t *testing.T) {
	if testing.Short() {
		t.Skip("full-catalog modeling plus full-matrix evaluation")
	}
	const runs = 2

	// In-process ground truth: the full matrix through its own store.
	store := modelstore.New()
	models, err := agent.BuildModelsIn(store, 0)
	if err != nil {
		t.Fatal(err)
	}
	rep := bench.Run(models, runs)
	total := store.Stats().ResidentBytes
	if total <= 0 {
		t.Fatalf("store reports no resident bytes: %+v", store.Stats())
	}

	// One byte short of the catalog: every model fits alone, the five
	// together never do, so the prewarm itself must evict and the request
	// mix below must trigger snapshot reloads.
	budget := total - 1
	stderr := &syncBuffer{}
	errc := make(chan error, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		errc <- runCtx(ctx, []string{
			"-addr", "127.0.0.1:0",
			"-budget", fmt.Sprint(budget),
			"-snapshot", t.TempDir(),
			"-workers", "2",
		}, stderr)
	}()
	// The daemon goroutine serves until the shutdown subtest cancels ctx;
	// runCtx returning early means startup failed.
	addrRE := regexp.MustCompile(`listening on http://(\S+)`)
	var base string
	for deadline := time.Now().Add(3 * time.Minute); ; {
		if m := addrRE.FindStringSubmatch(stderr.String()); m != nil {
			base = "http://" + m[1]
			break
		}
		select {
		case err := <-errc:
			t.Fatalf("daemon exited during startup: %v\nstderr:\n%s", err, stderr.String())
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(base + serveproto.PathHealthz)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var hz serveproto.Health
		if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK || !hz.OK || hz.Apps != len(agent.AppNames()) {
			t.Fatalf("healthz: status %d, body %+v", resp.StatusCode, hz)
		}
		if hz.Instance == "" {
			t.Error("healthz must advertise a per-process instance id (restart detection for recovery probes)")
		}
	})

	// One task per app × two settings, all POSTed concurrently, twice, so
	// the store churns through eviction while requests are in flight.
	tasks := rep.Tasks
	taskIdx := map[string]int{}
	for i, task := range tasks {
		if _, ok := taskIdx[task.App]; !ok {
			taskIdx[task.App] = i
		}
	}
	if len(taskIdx) != len(agent.AppNames()) {
		t.Fatalf("benchmark covers %d apps, want %d", len(taskIdx), len(agent.AppNames()))
	}
	labels := []string{"GUI+DMI / GPT-5 / Medium", "GUI-only / 5-mini / Medium"}
	posted := 0
	t.Run("concurrent-byte-identical", func(t *testing.T) {
		var wg sync.WaitGroup
		for round := 0; round < 2; round++ {
			for app, ti := range taskIdx {
				for _, label := range labels {
					wg.Add(1)
					posted++
					go func(app string, ti int, label string) {
						defer wg.Done()
						status, raw, err := postCell(base, serveproto.SessionRequest{
							App: app, Task: tasks[ti].ID, Setting: label, Runs: runs,
						})
						if err != nil || status != http.StatusOK {
							t.Errorf("%s/%s: status %d (%v): %s", app, label, status, err, raw)
							return
						}
						var got serveproto.RawSessionResponse
						if err := json.Unmarshal(raw, &got); err != nil {
							t.Errorf("%s/%s: %v", app, label, err)
							return
						}
						var row bench.Row
						found := false
						for _, r := range rep.Rows {
							if r.Setting.Label == label {
								row, found = r, true
							}
						}
						if !found {
							t.Errorf("report lacks row %q", label)
							return
						}
						want, err := json.Marshal(row.Outcomes[ti*runs : (ti+1)*runs])
						if err != nil {
							t.Error(err)
							return
						}
						if !bytes.Equal(got.Outcomes, want) {
							t.Errorf("%s/%s: daemon outcomes diverge from in-process bench.Run\n got: %s\nwant: %s",
								app, label, got.Outcomes, want)
						}
					}(app, ti, label)
				}
			}
		}
		wg.Wait()
	})

	t.Run("stats", func(t *testing.T) {
		resp, err := http.Get(base + serveproto.PathStats)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var st serveproto.StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		if st.Sessions != int64(posted) || st.Runs != int64(posted*runs) {
			t.Errorf("served %d sessions / %d runs, want %d / %d", st.Sessions, st.Runs, posted, posted*runs)
		}
		if st.Store.Evictions < 1 {
			t.Errorf("budget %d never forced an eviction: %+v", budget, st.Store)
		}
		if st.Store.SnapshotLoads < 1 {
			t.Errorf("no evicted model was reloaded from its snapshot: %+v", st.Store)
		}
		if st.Store.ResidentBytes > budget {
			t.Errorf("resident %d over budget %d", st.Store.ResidentBytes, budget)
		}
		if st.WarmHitRatio <= 0 || st.WarmHitRatio >= 1 {
			t.Errorf("warm-hit ratio %v outside (0,1) despite mixed traffic", st.WarmHitRatio)
		}
		if st.BudgetBytes != budget {
			t.Errorf("reported budget %d, want %d", st.BudgetBytes, budget)
		}
		// The pool counters cover every session of the process, the
		// in-process reference runs included.
		if st.EnvsReused+st.EnvsBuilt < int64(posted*runs) || st.EnvsReused == 0 {
			t.Errorf("%d environments reused and %d built for %d served runs", st.EnvsReused, st.EnvsBuilt, posted*runs)
		}
		for _, app := range agent.AppNames() {
			if st.CoreTokens[app] != models.CoreTokens[app] {
				t.Errorf("%s: daemon core tokens %d != in-process %d", app, st.CoreTokens[app], models.CoreTokens[app])
			}
		}
	})

	t.Run("validation", func(t *testing.T) {
		if resp, err := http.Post(base+serveproto.PathCells, "application/json", strings.NewReader(`{not json`)); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Errorf("POST {not json: status %d, want 400", resp.StatusCode)
			}
		}
		task := tasks[taskIdx["Word"]].ID
		cases := []struct {
			cell serveproto.SessionRequest
			want int
		}{
			{serveproto.SessionRequest{Task: "no-such-task", Setting: "GUI+DMI / GPT-5 / Medium"}, http.StatusNotFound},
			{serveproto.SessionRequest{Task: task, Setting: "no-such-setting"}, http.StatusNotFound},
			{serveproto.SessionRequest{App: "Excel", Task: task, Setting: "GUI+DMI / GPT-5 / Medium"}, http.StatusBadRequest},
			{serveproto.SessionRequest{Task: task, Setting: "GUI+DMI / GPT-5 / Medium", Runs: serveproto.MaxRuns + 1}, http.StatusBadRequest},
		}
		for _, c := range cases {
			status, raw, err := postCell(base, c.cell)
			if err != nil {
				t.Fatal(err)
			}
			if status != c.want {
				t.Errorf("cell %+v: status %d, body %s — want %d", c.cell, status, raw, c.want)
			}
		}
		if resp, err := http.Get(base + serveproto.PathCells); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("GET %s: status %d, want 405", serveproto.PathCells, resp.StatusCode)
			}
		}
		if resp, err := http.Post(base+serveproto.PathStats, "application/json", nil); err != nil {
			t.Fatal(err)
		} else {
			resp.Body.Close()
			if resp.StatusCode != http.StatusMethodNotAllowed {
				t.Errorf("POST %s: status %d, want 405", serveproto.PathStats, resp.StatusCode)
			}
		}
	})

	// Graceful shutdown: cancel runCtx while a cell is verifiably in
	// flight; the daemon must drain it (the POST completes with 200) and
	// then return nil — the clean-stop contract the coordinator's failure
	// handling relies on.
	t.Run("graceful-drain", func(t *testing.T) {
		task := tasks[taskIdx["Excel"]].ID
		type result struct {
			status int
			got    int
			err    error
		}
		resc := make(chan result, 1)
		go func() {
			status, raw, err := postCell(base, serveproto.SessionRequest{
				Task: task, Setting: "GUI+DMI / GPT-5 / Medium", Runs: serveproto.MaxRuns,
			})
			if err != nil {
				resc <- result{err: err}
				return
			}
			var sr serveproto.SessionResponse
			if err := json.Unmarshal(raw, &sr); err != nil {
				resc <- result{status: status, err: fmt.Errorf("answered %s (%v)", raw, err)}
				return
			}
			resc <- result{status: status, got: len(sr.Outcomes)}
		}()
		// Wait until /v1/stats reports the cell in flight, so the cancel
		// below races nothing.
		for deadline := time.Now().Add(time.Minute); ; {
			resp, err := http.Get(base + serveproto.PathStats)
			if err != nil {
				t.Fatal(err)
			}
			var st serveproto.StatsResponse
			if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if st.InFlight >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("cell never showed up in flight")
			}
			time.Sleep(5 * time.Millisecond)
		}
		cancel()
		select {
		case err := <-errc:
			if err != nil {
				t.Fatalf("graceful shutdown should return nil, got %v", err)
			}
		case <-time.After(2 * time.Minute):
			t.Fatal("daemon did not drain and exit after cancellation")
		}
		res := <-resc
		if res.err != nil || res.status != http.StatusOK || res.got != serveproto.MaxRuns {
			t.Fatalf("in-flight cell was not drained: status %d, %d outcomes, err %v",
				res.status, res.got, res.err)
		}
		if out := stderr.String(); !strings.Contains(out, "draining") || !strings.Contains(out, "drained, exiting") {
			t.Errorf("shutdown log missing drain markers:\n%s", out)
		}
	})
}

// cellBodyOfSize builds a syntactically valid cell body padded to exactly
// size bytes (the padding lives inside the task string, so the decoder must
// read through it and the byte cap is exercised mid-value).
func cellBodyOfSize(t *testing.T, size int) string {
	t.Helper()
	skeleton := `{"task":"","setting":"s","runs":1}`
	if size <= len(skeleton) {
		t.Fatalf("size %d smaller than the %d-byte skeleton", size, len(skeleton))
	}
	return `{"task":"` + strings.Repeat("x", size-len(skeleton)) + `","setting":"s","runs":1}`
}

// TestOversizeBodyIs413 pins the request-body cap of POST /v1/cells: a body
// of exactly serveproto.MaxRequestBytes gets past it (the unknown task is
// then a 404), one byte more is refused with 413, and an ordinary malformed
// body stays a 400. Driven against a bare (unprewarmed) server — every path
// rejects before any model is touched.
func TestOversizeBodyIs413(t *testing.T) {
	s := newBareServer(modelstore.New(), taskpack.Builtin())
	post := func(body string) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serveproto.PathCells, strings.NewReader(body)))
		return rec.Code
	}

	if code := post(cellBodyOfSize(t, serveproto.MaxRequestBytes)); code != http.StatusNotFound {
		t.Errorf("body at the %d-byte cap: status %d, want 404", serveproto.MaxRequestBytes, code)
	}
	if code := post(cellBodyOfSize(t, serveproto.MaxRequestBytes+1)); code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize body: status %d, want 413", code)
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Errorf("malformed body: status %d, want 400", code)
	}
}

// TestRouteSets pins the route set: every v1 endpoint is wired (probed
// with wrong-method requests, which prove the route exists without paying
// for a session), and the retired single-cell route and unversioned
// aliases are gone — a 404, like any unknown path.
func TestRouteSets(t *testing.T) {
	s := newBareServer(modelstore.New(), taskpack.Builtin())
	probe := func(method, path string) int {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
		return rec.Code
	}

	// Wrong method on a wired route is 405; an unwired route is 404.
	for _, path := range []string{serveproto.PathCells, serveproto.PathRip} {
		if code := probe(http.MethodGet, path); code != http.StatusMethodNotAllowed {
			t.Errorf("GET %s: status %d, want 405", path, code)
		}
	}
	for _, path := range []string{serveproto.PathStats, serveproto.PathHealthz} {
		if code := probe(http.MethodPost, path); code != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, code)
		}
	}
	// No route has an unversioned alias, and the retired single-cell
	// route answers under neither name.
	retired := []string{"/v1/session"}
	for _, path := range []string{serveproto.PathCells, serveproto.PathRip, serveproto.PathStats, serveproto.PathHealthz, retired[0]} {
		retired = append(retired, strings.TrimPrefix(path, "/v1"))
	}
	for _, path := range retired {
		for _, method := range []string{http.MethodGet, http.MethodPost} {
			if code := probe(method, path); code != http.StatusNotFound {
				t.Errorf("%s %s: status %d, want 404", method, path, code)
			}
		}
	}

	// The health route serves the readiness body with the pack identity.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, serveproto.PathHealthz, nil))
	var hz serveproto.Health
	if err := json.Unmarshal(rec.Body.Bytes(), &hz); err != nil {
		t.Fatal(err)
	}
	if reg := taskpack.Builtin(); rec.Code != http.StatusOK || !hz.OK || hz.Pack != reg.Name() || hz.PackHash != reg.Hash() {
		t.Errorf("GET %s: status %d, body %+v — want 200, ready, serving pack %s", serveproto.PathHealthz, rec.Code, hz, reg.Name())
	}
}

// TestCellValidation pins the failures of POST /v1/cells, each the HTTP
// status itself, on a bare server (every probe rejects before model work):
// the retired multi-cell envelope and any other unknown field are a 400
// naming the field, a pack mismatch is a 409 PackMismatch body, an unknown
// task a 404, and a runs count outside [1, MaxRuns] a 400.
func TestCellValidation(t *testing.T) {
	s := newBareServer(modelstore.New(), taskpack.Builtin())
	post := func(body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serveproto.PathCells, strings.NewReader(body)))
		return rec
	}

	for _, c := range []struct{ body, field string }{
		{`{"cells":[{"task":"word-replace","setting":"GUI+DMI / GPT-5 / Medium","runs":1}]}`, `"cells"`},
		{`{"task":"word-replace","setting":"GUI+DMI / GPT-5 / Medium","run":1}`, `"run"`},
	} {
		rec := post(c.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), c.field) {
			t.Errorf("%s: status %d, body %q — want 400 naming %s", c.body, rec.Code, rec.Body.String(), c.field)
		}
	}

	rec := post(`{"task":"word-replace","setting":"D-M","pack":"custom"}`)
	if rec.Code != http.StatusConflict {
		t.Fatalf("pack mismatch: status %d, want 409", rec.Code)
	}
	var mm serveproto.PackMismatch
	if err := json.Unmarshal(rec.Body.Bytes(), &mm); err != nil || mm.HavePack != taskpack.BuiltinName {
		t.Errorf("409 body is not a PackMismatch: %v %s", err, rec.Body.String())
	}

	for _, c := range []struct {
		cell serveproto.SessionRequest
		want int
	}{
		{serveproto.SessionRequest{Task: "no-such-task", Setting: "GUI+DMI / GPT-5 / Medium", Runs: 1}, http.StatusNotFound},
		{serveproto.SessionRequest{Task: "word-replace", Setting: "D-M", Runs: serveproto.MaxRuns + 1}, http.StatusBadRequest},
		{serveproto.SessionRequest{Task: "word-replace", Setting: "GUI+DMI / GPT-5 / Medium", Runs: 0}, http.StatusBadRequest},
	} {
		body, err := json.Marshal(c.cell)
		if err != nil {
			t.Fatal(err)
		}
		if rec := post(string(body)); rec.Code != c.want || strings.TrimSpace(rec.Body.String()) == "" {
			t.Errorf("cell %+v: status %d, body %q — want %d with a reason", c.cell, rec.Code, rec.Body.String(), c.want)
		}
	}
}

// TestPackMismatchIs409 pins the pack handshake: a cell naming a different
// pack (or the right pack at a different hash) is refused with 409 and a
// PackMismatch body carrying both identities, before any model work. Cells
// that skip the handshake (empty pack fields) are unaffected.
func TestPackMismatchIs409(t *testing.T) {
	s := newBareServer(modelstore.New(), taskpack.Builtin())

	post := func(pack, hash string) *httptest.ResponseRecorder {
		body, err := json.Marshal(serveproto.SessionRequest{
			Task: "word-replace", Setting: "D-M", Runs: 1, Pack: pack, PackHash: hash,
		})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serveproto.PathCells, bytes.NewReader(body)))
		return rec
	}

	for _, id := range [][2]string{
		{"custom", taskpack.Builtin().Hash()},
		{taskpack.BuiltinName, "deadbeef"},
	} {
		rec := post(id[0], id[1])
		if rec.Code != http.StatusConflict {
			t.Fatalf("pack %q hash %q: status %d, want 409; body: %s",
				id[0], id[1], rec.Code, rec.Body.String())
		}
		var mm serveproto.PackMismatch
		if err := json.Unmarshal(rec.Body.Bytes(), &mm); err != nil {
			t.Fatalf("409 body is not a PackMismatch: %v\n%s", err, rec.Body.String())
		}
		if mm.WantPack != id[0] || mm.WantHash != id[1] {
			t.Errorf("want side not echoed: %+v", mm)
		}
		if mm.HavePack != taskpack.BuiltinName || mm.HaveHash != taskpack.Builtin().Hash() {
			t.Errorf("have side wrong: %+v", mm)
		}
	}

	// A matching handshake must pass the gate (the unknown setting then
	// fails the cell with a 404 — anything but 409 proves the gate let it
	// through).
	if rec := post(taskpack.BuiltinName, taskpack.Builtin().Hash()); rec.Code == http.StatusConflict {
		t.Errorf("matching pack handshake was refused: %s", rec.Body.String())
	}
}

// TestServeUnknownAppPrewarm guards the daemon's error path without paying
// for a full prewarm: an unknown application through the same seam fails
// fast.
func TestServeUnknownAppPrewarm(t *testing.T) {
	if _, err := agent.ModelsFor(modelstore.New(), "Browser", 1); err == nil {
		t.Fatal("unknown app should fail the prewarm path")
	}
}
