package serveproto

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/modelstore"
)

// TestSessionRoundTrip pins the wire field names: the daemon and the
// coordinator are compiled against these structs, and external clients are
// written against the JSON keys.
func TestSessionRoundTrip(t *testing.T) {
	req := SessionRequest{App: "Word", Task: "word-1", Setting: "GUI+DMI / GPT-5 / Medium", Runs: 3}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"app"`, `"task"`, `"setting"`, `"runs"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("request JSON %s lacks %s", data, key)
		}
	}
	var back SessionRequest
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("round trip changed the request: %+v != %+v", back, req)
	}

	resp := SessionResponse{App: "Word", Task: "word-1", Setting: req.Setting, Runs: 1,
		Outcomes: []agent.Outcome{{Task: "word-1", Success: true, Steps: 4}}}
	data, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var respBack SessionResponse
	if err := json.Unmarshal(data, &respBack); err != nil {
		t.Fatal(err)
	}
	if len(respBack.Outcomes) != 1 || respBack.Outcomes[0] != resp.Outcomes[0] {
		t.Fatalf("outcomes did not survive the round trip: %+v", respBack)
	}
}

// TestRawSessionResponseMirror pins RawSessionResponse to SessionResponse:
// same fields, same order, same json tags — only the Outcomes payload type
// differs (raw bytes for byte-level comparisons). A field added to one but
// not the other is a wire drift, which is exactly what the raw view exists
// to catch.
func TestRawSessionResponseMirror(t *testing.T) {
	full := reflect.TypeOf(SessionResponse{})
	raw := reflect.TypeOf(RawSessionResponse{})
	if full.NumField() != raw.NumField() {
		t.Fatalf("SessionResponse has %d fields, RawSessionResponse %d", full.NumField(), raw.NumField())
	}
	for i := 0; i < full.NumField(); i++ {
		f, r := full.Field(i), raw.Field(i)
		if f.Name != r.Name || f.Tag.Get("json") != r.Tag.Get("json") {
			t.Errorf("field %d diverges: %s `%s` vs %s `%s`", i, f.Name, f.Tag, r.Name, r.Tag)
		}
		if f.Name != "Outcomes" && f.Type != r.Type {
			t.Errorf("field %s type diverges: %s vs %s", f.Name, f.Type, r.Type)
		}
	}
	if raw.Field(raw.NumField()-1).Type != reflect.TypeOf(json.RawMessage{}) {
		t.Errorf("RawSessionResponse.Outcomes must be json.RawMessage")
	}
}

// TestBatchRoundTrip pins what the retired multi-cell envelope used to
// carry: the pack stamp now rides on every SessionRequest and is echoed by
// its SessionResponse, and the old {"pack":...,"cells":[...]} envelope no
// longer decodes as a cell.
func TestBatchRoundTrip(t *testing.T) {
	req := SessionRequest{Task: "files-3", Setting: "GUI / GPT-5 / Medium", Runs: 1,
		Pack: "osworld-w", PackHash: "abc"}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"pack"`, `"pack_hash"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("cell request JSON %s lacks %s", data, key)
		}
	}
	back, err := DecodeSessionRequest(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if back != req {
		t.Fatalf("round trip changed the pack stamp: %+v != %+v", back, req)
	}
	unstamped, err := json.Marshal(SessionRequest{Task: "files-3", Setting: req.Setting, Runs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(unstamped), `"pack`) {
		t.Errorf("an unstamped cell must omit the pack keys: %s", unstamped)
	}

	resp := SessionResponse{Task: "files-3", Setting: req.Setting, Runs: 1, Pack: "osworld-w", PackHash: "abc",
		Outcomes: []agent.Outcome{{Task: "files-3", Success: true}}}
	data, err = json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	var respBack SessionResponse
	if err := json.Unmarshal(data, &respBack); err != nil {
		t.Fatal(err)
	}
	if respBack.Pack != resp.Pack || respBack.PackHash != resp.PackHash || len(respBack.Outcomes) != 1 {
		t.Fatalf("pack echo did not survive the round trip: %+v", respBack)
	}

	envelope := `{"pack":"osworld-w","pack_hash":"abc","cells":[{"task":"files-3","setting":"GUI / GPT-5 / Medium","runs":1}]}`
	if _, err := DecodeSessionRequest(strings.NewReader(envelope)); err == nil || !strings.Contains(err.Error(), "cells") {
		t.Errorf("the multi-cell envelope must be refused naming cells, got %v", err)
	}
}

func TestHitRatio(t *testing.T) {
	if r := HitRatio(modelstore.Stats{}); r != 0 {
		t.Errorf("zero traffic should have ratio 0, got %v", r)
	}
	if r := HitRatio(modelstore.Stats{Hits: 3, Misses: 1}); r != 0.75 {
		t.Errorf("3 hits / 1 miss should be 0.75, got %v", r)
	}
}

// TestStatsPoolCounters: the instance-pool counters are always on the
// wire, zero included, so an operator reads "reused 0" rather than a
// missing field from a replica that has built every environment.
func TestStatsPoolCounters(t *testing.T) {
	data, err := json.Marshal(StatsResponse{EnvsBuilt: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"envs_reused":0`, `"envs_built":3`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("stats JSON %s lacks %s", data, key)
		}
	}
	var back StatsResponse
	if err := json.Unmarshal(data, &back); err != nil || back.EnvsBuilt != 3 || back.EnvsReused != 0 {
		t.Errorf("round trip: %+v, %v", back, err)
	}
}
