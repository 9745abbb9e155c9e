package bench

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/serveproto"
)

// TestAddRemoveReplica covers the elastic-membership surface: validation,
// list semantics, capacity accounting, and revive-in-place on re-add.
func TestAddRemoveReplica(t *testing.T) {
	rd, err := NewRemoteDispatcher([]string{"http://a:1"}, RemoteOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if err := rd.AddReplica("http://a:1"); err == nil {
		t.Error("adding a present replica must fail")
	}
	if err := rd.AddReplica("not-a-url"); err == nil {
		t.Error("adding a malformed URL must fail")
	}
	if err := rd.AddReplica("http://b:2/"); err != nil {
		t.Fatalf("add: %v", err)
	}
	if got := rd.Members(); len(got) != 2 || got[0] != "http://a:1" || got[1] != "http://b:2" {
		t.Fatalf("Members() = %v, want [http://a:1 http://b:2]", got)
	}
	if got := rd.Capacity(); got != 8 { // 2 replicas × default in-flight 4
		t.Errorf("Capacity() = %d, want 8", got)
	}

	if err := rd.RemoveReplica("http://c:3"); err == nil {
		t.Error("removing an unknown replica must fail")
	}
	if err := rd.RemoveReplica("http://b:2"); err != nil {
		t.Fatalf("remove: %v", err)
	}
	if err := rd.RemoveReplica("http://b:2"); err == nil {
		t.Error("removing an already-removed replica must fail")
	}
	if got := rd.Members(); len(got) != 1 || got[0] != "http://a:1" {
		t.Errorf("Members() after remove = %v, want [http://a:1]", got)
	}
	if got := rd.Live(); len(got) != 1 {
		t.Errorf("Live() after remove = %v, want one replica", got)
	}
	if got := rd.Capacity(); got != 4 {
		t.Errorf("Capacity() after remove = %d, want 4", got)
	}
	// Removed replicas stay visible in Stats, flagged.
	stats := rd.Stats()
	if len(stats) != 2 || !stats[1].Removed {
		t.Errorf("Stats() must keep the removed replica flagged: %+v", stats)
	}

	// Re-adding revives in place: back in rotation, same membership slot.
	if err := rd.AddReplica("http://b:2"); err != nil {
		t.Fatalf("re-add: %v", err)
	}
	stats = rd.Stats()
	if len(stats) != 2 || stats[1].Removed || stats[1].Down {
		t.Errorf("re-added replica not revived in place: %+v", stats)
	}
	if got := rd.Live(); len(got) != 2 {
		t.Errorf("Live() after re-add = %v, want both", got)
	}
}

// TestMembershipChurnRace hammers Live/Stats/Members/Capacity/Retries
// readers against concurrent dispatching (with down-marking and fast
// recovery probes) and add/remove churn. The assertions are light — the
// point is the -race run: every counter access must hold the right lock.
func TestMembershipChurnRace(t *testing.T) {
	good := &echoReplica{}
	goodSrv := httptest.NewServer(good)
	t.Cleanup(goodSrv.Close)
	// A replica that flaps: sessions always 500, healthz always ready — so
	// every dispatch that reaches it down-marks it and the prober promptly
	// recovers it, exercising both transitions continuously.
	flap := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == serveproto.PathHealthz {
			w.Write([]byte(`{"ok":true,"apps":1}`))
			return
		}
		http.Error(w, "flap", http.StatusInternalServerError)
	}))
	t.Cleanup(flap.Close)

	rd, err := NewRemoteDispatcher([]string{goodSrv.URL, flap.URL}, RemoteOptions{
		InFlight:      2,
		ProbeInterval: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rd.Stats()
				rd.Live()
				rd.Members()
				rd.Capacity()
				rd.Retries()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		third := "http://127.0.0.1:1"
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := rd.AddReplica(third); err == nil {
				rd.RemoveReplica(third)
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		cell := Cell{Task: "t", Setting: "s", Runs: 1}
		for {
			select {
			case <-stop:
				return
			default:
			}
			rd.Dispatch(context.Background(), cell) // errors expected; churn is the point
		}
	}()
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if good.served.Load() == 0 {
		t.Error("no cell ever reached the healthy replica during the churn")
	}
}
