package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/serveproto"
	"repro/internal/ung"
)

func TestUnknownAppIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	err := run([]string{"-app", "Sketchpad"}, &out, &errb)
	if err == nil || !strings.Contains(err.Error(), "Sketchpad") {
		t.Fatalf("expected unknown-app error, got %v", err)
	}
}

func TestBadFlagIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-workers", "many"}, &out, &errb); err == nil {
		t.Fatal("expected a flag-parse error")
	}
}

func TestModelSingleAppTable(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-app", "Settings", "-workers", "2"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	for _, want := range []string{"app", "nodes", "core-tokens", "blocklist",
		"Settings", "rip(2 workers)", "Figure 4"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
}

// TestDefaultReportStable: the default report (all apps, 4 virtual workers) is
// a function of the apps alone. Its model-time column is the virtual
// schedule's makespan, so two runs on fresh stores print the same bytes.
func TestDefaultReportStable(t *testing.T) {
	if testing.Short() {
		t.Skip("catalog-scale rip")
	}
	var first, second, errb bytes.Buffer
	if err := run(nil, &first, &errb); err != nil {
		t.Fatalf("first run: %v", err)
	}
	if err := run(nil, &second, &errb); err != nil {
		t.Fatalf("second run: %v", err)
	}
	if first.String() != second.String() {
		t.Fatalf("default report differs between runs:\n%s\nvs\n%s", first.String(), second.String())
	}
}

func TestSnapshotReuseAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	dir := t.TempDir()
	var cold, warm, errb bytes.Buffer
	if err := run([]string{"-app", "Files", "-snapshot", dir}, &cold, &errb); err != nil {
		t.Fatalf("cold run: %v", err)
	}
	if !strings.Contains(cold.String(), "rip(4 workers)") {
		t.Fatalf("cold run should rip:\n%s", cold.String())
	}
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) == 0 {
		t.Fatalf("no snapshot written to %s (%v)", dir, err)
	}
	if filepath.Ext(entries[0].Name()) != ".ungb" {
		t.Errorf("snapshot %q is not the binary default", entries[0].Name())
	}
	if err := run([]string{"-app", "Files", "-snapshot", dir}, &warm, &errb); err != nil {
		t.Fatalf("warm run: %v", err)
	}
	if !strings.Contains(warm.String(), "snapshot") || !strings.Contains(warm.String(), "0s") {
		t.Fatalf("warm run should rebuild from the snapshot with zero rip time:\n%s", warm.String())
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

// ripServer is a minimal rip replica for the -replicas tests: /v1/healthz
// reports ready and /v1/rip expands frames on real app
// instances — the same ung.Cursor path the dmi-serve daemon runs.
type ripServer struct {
	mu   sync.Mutex
	curs map[string]*ung.Cursor
}

func (rs *ripServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == serveproto.PathHealthz {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serveproto.Health{OK: true, Apps: len(agent.AppNames())})
		return
	}
	if r.URL.Path != serveproto.PathRip || r.Method != http.MethodPost {
		http.NotFound(w, r)
		return
	}
	body, _ := io.ReadAll(r.Body)
	req, err := serveproto.ParseRipRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.curs == nil {
		rs.curs = make(map[string]*ung.Cursor)
	}
	cur := rs.curs[req.App]
	if cur == nil {
		factory, ok := agent.Factories()[req.App]
		if !ok {
			http.Error(w, "unknown app", http.StatusNotFound)
			return
		}
		cur = ung.NewCursor(factory())
		rs.curs[req.App] = cur
	}
	resp := serveproto.RipResponse{App: req.App, Context: req.Context}
	for _, f := range req.Frames {
		exp := serveproto.FromExpansion(cur.Expand(req.Context, ung.Frame{ID: f.ID, Path: f.Path}))
		resp.Results = append(resp.Results, serveproto.RipResult{Status: http.StatusOK, Expansion: &exp})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// TestReplicasShardedSnapshotMatchesSequential models the same app through
// the in-process pool and through -replicas sharding, persisting both
// snapshots, and requires the files to be byte-identical — the CLI-level
// half of the distributed-rip determinism contract.
func TestReplicasShardedSnapshotMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	srv := httptest.NewServer(&ripServer{})
	defer srv.Close()

	seqDir, shardDir := t.TempDir(), t.TempDir()
	var out, errb bytes.Buffer
	if err := run([]string{"-app", "Settings", "-workers", "1", "-snapshot", seqDir}, &out, &errb); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	out.Reset()
	if err := run([]string{"-app", "Settings", "-replicas", srv.URL, "-snapshot", shardDir}, &out, &errb); err != nil {
		t.Fatalf("sharded run: %v\n%s", err, errb.String())
	}
	if !strings.Contains(out.String(), "rip(1 replicas)") {
		t.Errorf("sharded run should report its source:\n%s", out.String())
	}

	seqFiles, err := os.ReadDir(seqDir)
	if err != nil || len(seqFiles) != 1 {
		t.Fatalf("sequential snapshot dir: %v (%d files)", err, len(seqFiles))
	}
	shardFiles, err := os.ReadDir(shardDir)
	if err != nil || len(shardFiles) != 1 {
		t.Fatalf("sharded snapshot dir: %v (%d files)", err, len(shardFiles))
	}
	if seqFiles[0].Name() != shardFiles[0].Name() {
		t.Fatalf("snapshot names differ: %q vs %q", seqFiles[0].Name(), shardFiles[0].Name())
	}
	a, err := os.ReadFile(filepath.Join(seqDir, seqFiles[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(shardDir, shardFiles[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded snapshot is not byte-identical to sequential: %d vs %d bytes", len(b), len(a))
	}
}

// TestReplicasNotReadyIsAnError pins the fleet wait: a replica that never
// reports healthy — still prewarming, or without the /v1 surface at all —
// fails the run with an error naming it, instead of ripping against a dead
// fleet.
func TestReplicasNotReadyIsAnError(t *testing.T) {
	old := replicaWait
	replicaWait = 300 * time.Millisecond
	defer func() { replicaWait = old }()
	for _, status := range []int{http.StatusInternalServerError, http.StatusNotFound} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "not serving", status)
		}))
		var out, errb bytes.Buffer
		err := run([]string{"-app", "Settings", "-replicas", srv.URL}, &out, &errb)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "not ready") || !strings.Contains(err.Error(), fmt.Sprint(status)) {
			t.Fatalf("status %d: expected a not-ready error naming it, got %v", status, err)
		}
	}
}

// TestModelProfileFlags: -cpuprofile/-memprofile produce non-empty pprof
// files without disturbing the report.
func TestModelProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("app-scale rip")
	}
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	if err := run([]string{"-app", "Settings", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, p := range []string{cpu, mem} {
		if fi, err := os.Stat(p); err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (%v)", p, err)
		}
	}
	if !strings.Contains(out.String(), "Settings") {
		t.Errorf("profiled run lost its report:\n%s", out.String())
	}
}
