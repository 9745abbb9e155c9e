package serveproto

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/uia"
	"repro/internal/ung"
)

// TestRipRoundTrip pins the rip wire field names and the expansion
// converters: an in-process ung.Expansion must survive the wire untouched,
// reveal order included, because the coordinator folds it into the graph
// exactly as if the expansion had run locally.
func TestRipRoundTrip(t *testing.T) {
	req := RipRequest{
		Pack: "osworld-w", PackHash: "abc",
		App: "Word", Context: "review",
		Frames: []RipFrame{
			{ID: "btn.bold"},
			{ID: "menu.insert.table", Path: []string{"menu.insert"}},
		},
	}
	data, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"app"`, `"context"`, `"frames"`, `"pack"`, `"pack_hash"`, `"id"`, `"path"`} {
		if !strings.Contains(string(data), key) {
			t.Errorf("rip request JSON %s lacks %s", data, key)
		}
	}
	back, err := ParseRipRequest(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.App != req.App || back.Context != req.Context || len(back.Frames) != 2 ||
		back.Frames[0].ID != "btn.bold" || len(back.Frames[1].Path) != 1 {
		t.Fatalf("rip request did not survive the round trip: %+v", back)
	}

	exp := ung.Expansion{
		Outcome: ung.ExpandOK,
		Reveals: []ung.Reveal{
			{ID: "dlg.table", Name: "Insert Table", Type: uia.WindowControl, Desc: "table dialog", Parent: "menu.insert.table"},
			{ID: "dlg.table.rows", Name: "Rows", Type: uia.SpinnerControl, LargeEnum: true, Parent: "dlg.table"},
		},
		Clicks: 3, Snapshots: 4, Elapsed: 1500 * time.Millisecond,
	}
	we := FromExpansion(exp)
	data, err = json.Marshal(RipResponse{App: "Word", Context: "review", Results: []RipResult{
		{Status: 200, Expansion: &we},
		{Status: 400, Error: "missing id"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	var resp RipResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		t.Fatal(err)
	}
	if len(resp.Results) != 2 || resp.Results[0].Expansion == nil || resp.Results[1].Status != 400 {
		t.Fatalf("rip response did not survive the round trip: %+v", resp)
	}
	got, err := resp.Results[0].Expansion.Expansion()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, exp) {
		t.Fatalf("expansion changed crossing the wire:\n got %+v\nwant %+v", got, exp)
	}
}

// TestRipOutcomeLabels pins each outcome's wire label and rejects unknown
// labels on decode — a client/replica enum skew must fail loudly, never be
// silently reinterpreted.
func TestRipOutcomeLabels(t *testing.T) {
	cases := []struct {
		outcome ung.ExpandOutcome
		label   string
	}{
		{ung.ExpandOK, RipOutcomeOK},
		{ung.ExpandSkipped, RipOutcomeSkipped},
		{ung.ExpandBlocked, RipOutcomeBlocked},
	}
	for _, c := range cases {
		we := FromExpansion(ung.Expansion{Outcome: c.outcome})
		if we.Outcome != c.label {
			t.Errorf("outcome %v maps to %q, want %q", c.outcome, we.Outcome, c.label)
		}
		back, err := we.Expansion()
		if err != nil {
			t.Errorf("outcome %q did not decode: %v", c.label, err)
		}
		if back.Outcome != c.outcome {
			t.Errorf("outcome %q decoded to %v, want %v", c.label, back.Outcome, c.outcome)
		}
	}
	if _, err := (RipExpansion{Outcome: "exploded"}).Expansion(); err == nil {
		t.Error("unknown outcome label must be a decode error")
	}
}

// TestParseRipRequestRejects pins the envelope-level validation boundary.
func TestParseRipRequestRejects(t *testing.T) {
	frames := func(n int) string {
		var sb strings.Builder
		for i := 0; i < n; i++ {
			if i > 0 {
				sb.WriteString(",")
			}
			sb.WriteString(`{"id":"x"}`)
		}
		return sb.String()
	}
	bad := []struct {
		name string
		body string
	}{
		{"garbage", `{"app":`},
		{"missing app", `{"frames":[{"id":"x"}]}`},
		{"no frames", `{"app":"Word"}`},
		{"empty frames", `{"app":"Word","frames":[]}`},
		{"too many frames", `{"app":"Word","frames":[` + frames(MaxRipFrames+1) + `]}`},
	}
	for _, c := range bad {
		if _, err := ParseRipRequest([]byte(c.body)); err == nil {
			t.Errorf("%s: want an envelope error, got none", c.name)
		}
	}
	if _, err := ParseRipRequest([]byte(`{"app":"Word","frames":[` + frames(MaxRipFrames) + `]}`)); err != nil {
		t.Errorf("a full envelope must parse: %v", err)
	}
}

// TestValidateRipFrame pins the per-frame validation the handler answers
// frame-by-frame (so one defective frame does not reject its envelope).
func TestValidateRipFrame(t *testing.T) {
	if err := ValidateRipFrame(RipFrame{ID: "x", Path: []string{"a", "b"}}); err != nil {
		t.Errorf("valid frame rejected: %v", err)
	}
	if err := ValidateRipFrame(RipFrame{}); err == nil {
		t.Error("empty id must be rejected")
	}
	if err := ValidateRipFrame(RipFrame{ID: "x", Path: []string{"a", ""}}); err == nil {
		t.Error("empty path step must be rejected")
	}
	long := make([]string, MaxRipPath+1)
	for i := range long {
		long[i] = "a"
	}
	if err := ValidateRipFrame(RipFrame{ID: "x", Path: long}); err == nil {
		t.Error("overlong path must be rejected")
	}
	if err := ValidateRipFrame(RipFrame{ID: "x", Path: long[1:]}); err != nil {
		t.Errorf("path at the limit must pass: %v", err)
	}
}

// TestRipRequestBytes pins the scaled body cap: MaxRequestBytes per declared
// frame, the count clamped to [1, MaxRipFrames].
func TestRipRequestBytes(t *testing.T) {
	cases := []struct {
		n    int
		want int64
	}{
		{0, MaxRequestBytes},
		{-3, MaxRequestBytes},
		{1, MaxRequestBytes},
		{8, 8 * MaxRequestBytes},
		{MaxRipFrames, MaxRipFrames * MaxRequestBytes},
		{MaxRipFrames + 1, MaxRipFrames * MaxRequestBytes},
	}
	for _, c := range cases {
		if got := RipRequestBytes(c.n); got != c.want {
			t.Errorf("RipRequestBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}
