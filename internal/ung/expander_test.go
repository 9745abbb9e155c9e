package ung_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/ung"
)

// TestExpandAfterClose: an expander answers a frame pushed after Close with
// an immediate "closed" error on the buffered channel — never a channel
// that no worker will ever answer — and Close stays idempotent.
func TestExpandAfterClose(t *testing.T) {
	t.Run("remote", func(t *testing.T) {
		srv := httptest.NewServer(http.NotFoundHandler())
		t.Cleanup(srv.Close)
		ex, err := bench.NewRemoteExpander([]string{srv.URL}, "Demo", bench.RemoteOptions{ProbeInterval: -1})
		if err != nil {
			t.Fatal(err)
		}
		st := ex.Close()
		select {
		case res := <-ex.Expand("", ung.Frame{ID: "x"}):
			if res.Err == nil || !strings.Contains(res.Err.Error(), "closed") {
				t.Errorf("Expand after Close: %+v", res)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Expand after Close never answered")
		}
		if again := ex.Close(); again != st || st.Workers < 1 {
			t.Errorf("Close stats %+v then %+v, want equal with Workers >= 1", st, again)
		}
	})
}
