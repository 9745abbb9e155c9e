package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/bench"
	"repro/internal/osworld"
)

func TestBadFlagIsAnError(t *testing.T) {
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "three"}, &out, &errb); err == nil {
		t.Fatal("expected a flag-parse error")
	}
}

func TestTable3Section(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "1", "-table3"}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	got := out.String()
	if !strings.Contains(got, "Table 3") {
		t.Fatalf("missing Table 3 header:\n%s", got)
	}
	for _, set := range bench.Matrix() {
		if !strings.Contains(got, set.Label) {
			t.Errorf("Table 3 missing row %q", set.Label)
		}
	}
	// Section flags are exclusive: no other sections in the output.
	for _, absent := range []string{"Figure 5a", "Figure 6", "Token overhead"} {
		if strings.Contains(got, absent) {
			t.Errorf("-table3 output unexpectedly contains %q", absent)
		}
	}
	progress := errb.String()
	want := fmt.Sprintf("%d tasks", len(osworld.All()))
	if !strings.Contains(progress, want) {
		t.Errorf("stderr progress should mention %q:\n%s", want, progress)
	}
}

// reportGoldenSHA256 is the digest of the seeded report printed by
// `dmi-bench -runs 3 -table3 -fig5a -fig5b -fig6 -oneshot -tokens`. It pins
// every figure of the evaluation at once: a change that only moves a
// success rate by one task shows here even when every structural test
// still passes. Regenerate it only with a reviewed reason for the report
// to change.
const reportGoldenSHA256 = "875767ba431196f8a630dcbb87c9c2835fd3c0d4f434c01fee70909667a27297"

func TestReportGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	var out, errb bytes.Buffer
	args := []string{"-runs", "3", "-table3", "-fig5a", "-fig5b", "-fig6", "-oneshot", "-tokens"}
	if err := run(args, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if sum := sha256.Sum256(out.Bytes()); hex.EncodeToString(sum[:]) != reportGoldenSHA256 {
		t.Errorf("report digest = %x, want %s; report:\n%s", sum, reportGoldenSHA256, out.String())
	}
}

// TestParallelFlagMatchesSequential drives the CLI end to end at two pool
// sizes: the rendered report must be byte-identical (the RunParallel
// contract surfaced at the binary's boundary).
func TestParallelFlagMatchesSequential(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	var seq, par, errb bytes.Buffer
	if err := run([]string{"-runs", "1"}, &seq, &errb); err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	if err := run([]string{"-runs", "1", "-parallel", "8"}, &par, &errb); err != nil {
		t.Fatalf("parallel run: %v", err)
	}
	if seq.String() != par.String() {
		t.Fatal("-parallel 8 report differs from the sequential report")
	}
	for _, want := range []string{"Table 3", "Figure 5a", "Figure 5b", "Figure 6",
		"One-shot", "Token overhead", "Settings", "Files"} {
		if !strings.Contains(seq.String(), want) {
			t.Errorf("full report missing %q", want)
		}
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

// TestJSONBaseline: -json writes the machine-readable perf record CI
// uploads (BENCH_serve.json) — session counts from the grid shape, positive
// throughput, and store counters with a sane warm-hit ratio.
func TestJSONBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "1", "-parallel", "4", "-table3", "-json", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Settings          int     `json:"settings"`
		Tasks             int     `json:"tasks"`
		Sessions          int     `json:"sessions"`
		SessionsPerSecond float64 `json:"sessions_per_second"`
		WarmHitRatio      float64 `json:"warm_hit_ratio"`
		Store             struct {
			Misses         int64 `json:"misses"`
			ResidentBytes  int64 `json:"resident_bytes"`
			ResidentModels int   `json:"resident_models"`
		} `json:"store"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("baseline is not valid JSON: %v\n%s", err, data)
	}
	wantSessions := len(bench.Matrix()) * len(osworld.All())
	if b.Sessions != wantSessions || b.Settings != len(bench.Matrix()) || b.Tasks != len(osworld.All()) {
		t.Errorf("grid shape wrong: %+v (want %d sessions)", b, wantSessions)
	}
	if b.SessionsPerSecond <= 0 {
		t.Errorf("throughput %v not positive", b.SessionsPerSecond)
	}
	// The baseline accounts one store fetch per session start over 312
	// sessions against at most a handful of offline-build misses, so the
	// ratio must reflect warm serving, not sit at a degenerate 0.
	if b.WarmHitRatio < 0.9 || b.WarmHitRatio > 1 {
		t.Errorf("warm-hit ratio %v outside [0.9,1]", b.WarmHitRatio)
	}
	// The offline phase ran through the shared store: the whole catalog
	// must be resident and at least one build must have been a miss.
	if b.Store.Misses < 1 || b.Store.ResidentModels < 1 || b.Store.ResidentBytes <= 0 {
		t.Errorf("store counters implausible: %+v", b.Store)
	}
}

// TestHotpathRecord: -hotpath writes the snapshot-codec size record CI's
// bench-delta gate consumes — one entry per catalog app, both codecs
// measured, and the binary total well under the JSON total (the ≤0.7× gate
// in ci.yml, asserted here at the source).
func TestHotpathRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "1", "-table3", "-hotpath", path}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(errb.String(), "hot-path size record written") {
		t.Errorf("stderr never confirmed the hotpath record:\n%s", errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rec hotpathRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		t.Fatalf("hotpath record is not valid JSON: %v\n%s", err, data)
	}
	if len(rec.Apps) != len(agent.Factories()) {
		t.Errorf("record covers %d apps, want the full %d-app catalog", len(rec.Apps), len(agent.Factories()))
	}
	for _, app := range rec.Apps {
		if app.Nodes <= 0 || app.BinaryBytes <= 0 || app.JSONBytes <= 0 {
			t.Errorf("degenerate per-app entry: %+v", app)
		}
		if app.BinaryBytes >= app.JSONBytes {
			t.Errorf("%s: binary (%d B) not smaller than JSON (%d B)", app.App, app.BinaryBytes, app.JSONBytes)
		}
	}
	if rec.BinaryBytes <= 0 || rec.JSONBytes <= 0 {
		t.Fatalf("degenerate totals: %+v", rec)
	}
	if rec.BinaryRatio > 0.7 {
		t.Errorf("binary/JSON ratio %.3f exceeds the 0.7 CI gate", rec.BinaryRatio)
	}
}

// TestProfileFlags: -cpuprofile and -memprofile produce non-empty pprof
// files without disturbing the run.
func TestProfileFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	var out, errb bytes.Buffer
	if err := run([]string{"-runs", "1", "-table3", "-cpuprofile", cpu, "-memprofile", mem}, &out, &errb); err != nil {
		t.Fatalf("run: %v", err)
	}
	if !strings.Contains(out.String(), "Table 3") {
		t.Error("profiled run lost its report")
	}
	for _, path := range []string{cpu, mem} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Errorf("profile missing: %v", err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(path))
		}
	}
}
