package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"testing"

	"repro/internal/serveproto"
)

// fixedAnswer is an http.RoundTripper that answers every request with one
// status and body, so a fuzzed replica answer reaches the dispatcher's
// decoding without a server in between.
type fixedAnswer struct {
	status int
	body   []byte
}

func (a fixedAnswer) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: a.status,
		Header:     make(http.Header),
		Body:       io.NopCloser(bytes.NewReader(a.body)),
		Request:    req,
	}, nil
}

// echoesCell reports whether body, decoded the way the dispatcher decodes a
// 200 answer, is a SessionResponse echoing cell with cell.Runs outcomes.
func echoesCell(cell Cell, body []byte) bool {
	var sr serveproto.SessionResponse
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&sr); err != nil {
		return false
	}
	return sr.Task == cell.Task && sr.Setting == cell.Setting && len(sr.Outcomes) == cell.Runs
}

// FuzzCellAnswer drives one Dispatch through a one-replica dispatcher whose
// replica answers with a fuzzed status and body. Whatever the answer, the
// dispatch must not panic and must end in exactly one verdict: the cell's
// outcomes (only when the body echoes the cell), a final request error or
// pack mismatch that leaves the replica up, or a replica fault that
// down-marks it and counts one retry. The corpus keeps the answers of the
// retired multi-cell shape ({"results":[...]}: cell-404, valid-answer,
// wrong-echo, wrong-result-count, truncated-json): a 200 in that shape does
// not echo the cell, so it must read as a replica fault.
func FuzzCellAnswer(f *testing.F) {
	cell := Cell{Task: "task-0", Setting: "s", Runs: 2}
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		rd, err := NewRemoteDispatcher([]string{"http://replica.test"}, RemoteOptions{
			ProbeInterval: -1,
			Pack:          "p", PackHash: "aa",
			Client: &http.Client{Transport: fixedAnswer{status: status, body: body}},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer rd.Close()
		outcomes, err := rd.Dispatch(context.Background(), cell)
		st := rd.Stats()[0]
		var bad *requestError
		var mismatch *PackMismatchError
		switch {
		case err == nil:
			if status != http.StatusOK || !echoesCell(cell, body) {
				t.Fatalf("status %d, body %q accepted as the cell's answer", status, body)
			}
			if len(outcomes) != cell.Runs || st.Cells != 1 {
				t.Fatalf("success delivered %d outcomes and counted %d cells, want %d and 1", len(outcomes), st.Cells, cell.Runs)
			}
		case errors.As(err, &bad), errors.As(err, &mismatch):
			if st.Down || rd.Retries() != 0 || st.Failures != 0 {
				t.Fatalf("final verdict %v counted against the replica: %+v, %d retries", err, st, rd.Retries())
			}
		default:
			if !st.Down || rd.Retries() != 1 || st.Failures != 1 {
				t.Fatalf("replica fault %v: %+v, %d retries; want down, 1 failure, 1 retry", err, st, rd.Retries())
			}
		}
		if err != nil && (outcomes != nil || st.Cells != 0) {
			t.Fatalf("failed dispatch %v delivered %d outcomes, %d cells counted", err, len(outcomes), st.Cells)
		}
	})
}
