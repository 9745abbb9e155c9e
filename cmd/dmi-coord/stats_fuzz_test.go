package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/serveproto"
)

// fixedAnswer is an http.RoundTripper that answers every request with one
// status and body, so a fuzzed replica answer reaches the scrape's decoding
// without a server in between.
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

// FuzzStatsAnswer drives scrapeStats — the coordinator's GET /v1/stats
// scrape at the end of a run — against a replica answering a fuzzed status
// and body, through probeClient. Whatever the answer, it must not panic,
// and it must keep the replica's stats exactly when the answer is a 200
// whose body decodes, keeping the decoded body.
func FuzzStatsAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		saved := probeClient
		probeClient = &http.Client{Transport: fixedAnswer{status: status, body: body}}
		defer func() { probeClient = saved }()
		var stderr bytes.Buffer
		got := scrapeStats(context.Background(), []string{"http://replica.test"}, &stderr)
		var want serveproto.StatsResponse
		kept := status == http.StatusOK && json.NewDecoder(bytes.NewReader(body)).Decode(&want) == nil
		switch {
		case kept && len(got) != 1:
			t.Fatalf("status %d, body %q: %d stats kept, want 1 (stderr %q)", status, body, len(got), stderr.String())
		case !kept && len(got) != 0:
			t.Fatalf("status %d, body %q kept: %+v", status, body, got)
		case kept && !reflect.DeepEqual(got[0], want):
			t.Fatalf("kept %+v, want the decoded body %+v", got[0], want)
		}
	})
}
