package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/modelstore"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
	"repro/internal/ung"
)

// postRip posts one rip envelope to the bare server, declaring its frame
// count like a well-behaved coordinator.
func postRip(t *testing.T, s *server, req serveproto.RipRequest) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, serveproto.PathRip, bytes.NewReader(body))
	hr.Header.Set(serveproto.RipBatchHeader, fmt.Sprint(len(req.Frames)))
	s.ServeHTTP(rec, hr)
	return rec
}

// TestRipValidation pins the envelope checks of POST /v1/rip: the /v1/cells
// pattern with request-level rejections (405/413/400/409/404) and per-frame
// status independence past them.
func TestRipValidation(t *testing.T) {
	s := newBareServer(modelstore.New(), taskpack.Builtin())

	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, serveproto.PathRip, nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/rip: status %d, want 405", rec.Code)
	}
	// The rip endpoint is v1-only: no unversioned alias.
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/rip", nil))
	if rec.Code != http.StatusNotFound {
		t.Errorf("POST /rip: status %d, want 404 (rip is v1-only)", rec.Code)
	}

	// Undeclared oversize body trips the single-frame cap; declaring the
	// frame count scales it (decoder reads through the padding mid-value).
	pad := strings.Repeat("x", serveproto.MaxRequestBytes)
	big := []byte(`{"app":"Word","frames":[{"id":"` + pad + `"}]}`)
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serveproto.PathRip, bytes.NewReader(big)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("undeclared oversize rip body: status %d, want 413", rec.Code)
	}
	rec = httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, serveproto.PathRip, bytes.NewReader(big))
	hr.Header.Set(serveproto.RipBatchHeader, "2")
	s.ServeHTTP(rec, hr)
	if rec.Code == http.StatusRequestEntityTooLarge {
		t.Errorf("declared-2 rip body still 413; the cap must scale with the declaration")
	}

	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, serveproto.PathRip, strings.NewReader("{not json")))
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed rip body: status %d, want 400", rec.Code)
	}

	if rec := postRip(t, s, serveproto.RipRequest{
		Pack: "other-pack", PackHash: "beef",
		App: "Word", Frames: []serveproto.RipFrame{{ID: "x"}},
	}); rec.Code != http.StatusConflict {
		t.Errorf("pack mismatch: status %d, want 409", rec.Code)
	}
	if rec := postRip(t, s, serveproto.RipRequest{
		App: "NoSuchApp", Frames: []serveproto.RipFrame{{ID: "x"}},
	}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown app: status %d, want 404", rec.Code)
	}
	if rec := postRip(t, s, serveproto.RipRequest{
		App: "Word", Context: "no-such-context", Frames: []serveproto.RipFrame{{ID: "x"}},
	}); rec.Code != http.StatusNotFound {
		t.Errorf("unknown context: status %d, want 404", rec.Code)
	}

	// Per-frame independence: a defective frame answers 400 in place while
	// its envelope-mates still run.
	rec = postRip(t, s, serveproto.RipRequest{App: "Word", Frames: []serveproto.RipFrame{
		{ID: ""},
		{ID: "definitely-not-a-control"},
	}})
	if rec.Code != http.StatusOK {
		t.Fatalf("mixed envelope: status %d, want 200; %s", rec.Code, rec.Body.String())
	}
	var resp serveproto.RipResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(resp.Results))
	}
	if resp.Results[0].Status != http.StatusBadRequest {
		t.Errorf("empty-id frame: status %d, want 400", resp.Results[0].Status)
	}
	if resp.Results[1].Status != http.StatusOK || resp.Results[1].Expansion == nil {
		t.Fatalf("unknown-control frame should still expand (to a skip): %+v", resp.Results[1])
	}
	if resp.Results[1].Expansion.Outcome != serveproto.RipOutcomeSkipped {
		t.Errorf("unknown control expands to %q, want %q", resp.Results[1].Expansion.Outcome, serveproto.RipOutcomeSkipped)
	}
}

// TestRipMatchesLocalExpand is the replica-side determinism check: an
// expansion served over POST /v1/rip must equal the same frame expanded by
// a fresh ung.Cursor on a fresh instance — same outcome, same reveals in
// the same order, same click and snapshot counts — including across
// envelopes that reuse the warm pooled instance and its cursor's
// checkpoints.
func TestRipMatchesLocalExpand(t *testing.T) {
	const app = "Settings"
	s := newBareServer(modelstore.New(), taskpack.Builtin())
	factory := agent.Factories()[app]

	// Harvest real frames: rip the app locally and take the first
	// MaxRipFrames discovered controls as depth-0 probes.
	g, _, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var frames []serveproto.RipFrame
	for _, n := range g.Nodes[1:] {
		if len(frames) == serveproto.MaxRipFrames {
			break
		}
		frames = append(frames, serveproto.RipFrame{ID: n.ID})
	}

	for round := 0; round < 2; round++ {
		rec := postRip(t, s, serveproto.RipRequest{App: app, Frames: frames})
		if rec.Code != http.StatusOK {
			t.Fatalf("round %d: status %d; %s", round, rec.Code, rec.Body.String())
		}
		var resp serveproto.RipResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Results) != len(frames) {
			t.Fatalf("round %d: %d results for %d frames", round, len(resp.Results), len(frames))
		}
		for i, fr := range frames {
			res := resp.Results[i]
			if res.Status != http.StatusOK || res.Expansion == nil {
				t.Fatalf("round %d frame %q: %+v", round, fr.ID, res)
			}
			remote, err := res.Expansion.Expansion()
			if err != nil {
				t.Fatalf("round %d frame %q: %v", round, fr.ID, err)
			}
			want := ung.NewCursor(factory()).Expand("", ung.Frame{ID: fr.ID, Path: fr.Path})
			if !reflect.DeepEqual(remote, want) {
				t.Errorf("round %d frame %q diverges from the local expansion:\n got %+v\nwant %+v",
					round, fr.ID, remote, want)
			}
		}
	}

	// The replica counted its expansion ledger.
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, serveproto.PathStats, nil))
	var st serveproto.StatsResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if want := int64(2 * len(frames)); st.Expansions != want {
		t.Errorf("stats report %d expansions, want %d", st.Expansions, want)
	}
}

// failingProxy wraps a real server and simulates a mid-rip kill: after
// serving failAfter rip envelopes it answers 500 to everything, health
// probes included — indistinguishable from a dead process to the expander.
type failingProxy struct {
	inner     http.Handler
	failAfter int64
	envelopes atomic.Int64
}

func (p *failingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p.envelopes.Load() >= p.failAfter {
		http.Error(w, "killed", http.StatusInternalServerError)
		return
	}
	if r.URL.Path == serveproto.PathRip && r.Method == http.MethodPost {
		p.envelopes.Add(1)
	}
	p.inner.ServeHTTP(w, r)
}

// TestRipShardedEndToEnd drives the whole distributed-rip stack — real
// daemon handlers behind HTTP, bench.RemoteExpander sharding across them,
// ung.RipDispatched merging — and requires the merged graph to be
// byte-identical to the sequential rip even though one replica is "killed"
// mid-rip and its in-flight frames re-dispatched to the survivor.
func TestRipShardedEndToEnd(t *testing.T) {
	const app = "Settings"
	factory := agent.Factories()[app]
	seq, _, err := ung.Rip(factory(), ung.Config{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ung.EncodeBinary(seq)
	if err != nil {
		t.Fatal(err)
	}

	dying := &failingProxy{
		inner:     newBareServer(modelstore.New(), taskpack.Builtin()),
		failAfter: 2,
	}
	srvDying := httptest.NewServer(dying)
	defer srvDying.Close()
	srvHealthy := httptest.NewServer(newBareServer(modelstore.New(), taskpack.Builtin()))
	defer srvHealthy.Close()

	re, err := bench.NewRemoteExpander(
		[]string{srvDying.URL, srvHealthy.URL}, app,
		bench.RemoteOptions{Batch: 8, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	g, st, err := ung.RipDispatched(factory(), ung.Config{}, re)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ung.EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("distributed rip with a mid-rip kill is not byte-identical to sequential: %d vs %d bytes",
			len(got), len(want))
	}
	if st.Clicks == 0 {
		t.Errorf("folded stats lost the clicks: %+v", st)
	}
	if re.Retries() == 0 {
		t.Error("the killed replica's envelopes were never re-dispatched")
	}
	downed := false
	for _, rs := range re.Stats() {
		downed = downed || rs.Down
	}
	if !downed {
		t.Error("the killed replica was never down-marked")
	}
}
