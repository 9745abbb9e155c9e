package bench

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/osworld"
	"repro/internal/serveproto"
	"repro/internal/taskpack"
)

// TestPackLoadedGridEquivalence is the behavior-preservation proof for the
// declarative task-pack refactor: the built-in grid exported to pack bytes,
// loaded back through the strict decoder, and run through the dispatcher
// seam renders a report byte-identical to the compiled-in sequential run —
// and the loaded tasks are structurally identical to the compiled-in ones,
// so nothing survives only because the renderer doesn't look at it.
func TestPackLoadedGridEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	p, err := taskpack.BuiltinPack()
	if err != nil {
		t.Fatal(err)
	}
	data, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	reg, err := taskpack.Load(data)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(reg.Tasks(), osworld.All()) {
		t.Fatal("pack-loaded tasks are not structurally identical to the compiled-in grid")
	}
	if reg.Hash() != taskpack.Builtin().Hash() {
		t.Fatalf("loaded hash %s differs from builtin hash %s", reg.Hash(), taskpack.Builtin().Hash())
	}

	models, rep := sharedReport(t)
	seq := renderAll(models, rep)
	for _, concurrency := range []int{1, 8} {
		got, err := RunDispatchedIn(context.Background(), reg, NewLocalDispatcherIn(reg, models, 1), 3, concurrency)
		if err != nil {
			t.Fatalf("concurrency=%d: %v", concurrency, err)
		}
		if renderAll(models, got) != seq {
			t.Fatalf("concurrency=%d: pack-loaded report differs from the compiled-in sequential run", concurrency)
		}
	}
}

// TestRemoteDispatcherSendsPackIdentity pins the handshake fields on the
// wire: a dispatcher built with pack options stamps every cell request with
// them.
func TestRemoteDispatcherSendsPackIdentity(t *testing.T) {
	var got serveproto.SessionRequest
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var err error
		if got, err = serveproto.DecodeSessionRequest(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		writeJSON(w, serveproto.SessionResponse{})
	}))
	t.Cleanup(srv.Close)

	rd, err := NewRemoteDispatcher([]string{srv.URL}, RemoteOptions{
		Pack: "custom", PackHash: "abc123",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	task := osworld.All()[0]
	// The zero-valued response fails the echo check downstream; the wire
	// fields are what this test is about.
	rd.Dispatch(context.Background(), Cell{App: task.App, Task: task.ID, Setting: Matrix()[0].Label, Runs: 1})
	if got.Pack != "custom" || got.PackHash != "abc123" {
		t.Errorf("request carried pack=%q hash=%q, want custom/abc123", got.Pack, got.PackHash)
	}
}

// TestRemoteDispatcherPackMismatch pins the 409 path: a replica rejecting
// the handshake yields a *PackMismatchError naming the replica and both
// identities, immediately (no failover to other replicas, no down-mark —
// the replica is healthy, the configuration is wrong).
func TestRemoteDispatcherPackMismatch(t *testing.T) {
	mismatch := serveproto.PackMismatch{
		WantPack: "custom", WantHash: "abc", HavePack: "osworld-w", HaveHash: "def",
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(mismatch)
	}))
	t.Cleanup(srv.Close)

	rd, err := NewRemoteDispatcher([]string{srv.URL}, RemoteOptions{Pack: "custom", PackHash: "abc"})
	if err != nil {
		t.Fatal(err)
	}
	task := osworld.All()[0]
	_, err = rd.Dispatch(context.Background(), Cell{Task: task.ID, Setting: Matrix()[0].Label, Runs: 1})
	var pm *PackMismatchError
	if !errors.As(err, &pm) {
		t.Fatalf("want *PackMismatchError, got %T: %v", err, err)
	}
	if pm.Replica != srv.URL {
		t.Errorf("error names replica %q, want %q", pm.Replica, srv.URL)
	}
	if pm.WantPack != "custom" || pm.WantHash != "abc" || pm.HavePack != "osworld-w" || pm.HaveHash != "def" {
		t.Errorf("mismatch identities not carried through: %+v", pm)
	}
	if live := rd.Live(); len(live) != 1 {
		t.Errorf("mismatched replica was down-marked: live=%v", live)
	}
}
