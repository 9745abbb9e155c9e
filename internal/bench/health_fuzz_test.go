package bench

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"repro/internal/serveproto"
)

// FuzzHealthAnswer drives ProbeHealthz — the one health check behind the
// prober, dmi-coord's startup wait and dmi-model's replica wait — against a
// replica answering a fuzzed status and body. Whatever the answer, it must
// not panic, and it must report a replica ready exactly when the answer is
// a 200 whose body decodes with ok: true, returning that decoded body.
func FuzzHealthAnswer(f *testing.F) {
	f.Fuzz(func(t *testing.T, status int, body []byte) {
		client := &http.Client{Transport: fixedAnswer{status: status, body: body}}
		hz, err := ProbeHealthz(context.Background(), client, "http://replica.test")
		var want serveproto.Health
		ready := status == http.StatusOK &&
			json.NewDecoder(bytes.NewReader(body)).Decode(&want) == nil && want.OK
		switch {
		case err == nil && !ready:
			t.Fatalf("status %d, body %q reported ready: %+v", status, body, hz)
		case err != nil && ready:
			t.Fatalf("status %d, body %q refused: %v", status, body, err)
		case err == nil && hz != want:
			t.Fatalf("ready answer returned %+v, want the decoded body %+v", hz, want)
		}
	})
}
