package ung_test

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/appkit"
	"repro/internal/bench"
	"repro/internal/ung"
)

// TestExpandAfterClose: every expander answers a frame pushed after Close
// with an immediate "closed" error on the buffered channel — never a channel
// that no worker will ever answer — and Close stays idempotent.
func TestExpandAfterClose(t *testing.T) {
	for _, tc := range []struct {
		name string
		new  func(t *testing.T) ung.Expander
	}{
		{"local", func(*testing.T) ung.Expander {
			return ung.NewLocalExpander(func() *appkit.App { return appkit.New("Demo") }, 2)
		}},
		{"remote", func(t *testing.T) ung.Expander {
			srv := httptest.NewServer(http.NotFoundHandler())
			t.Cleanup(srv.Close)
			re, err := bench.NewRemoteExpander([]string{srv.URL}, "Demo", bench.RemoteOptions{ProbeInterval: -1})
			if err != nil {
				t.Fatal(err)
			}
			return re
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ex := tc.new(t)
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
}
