package bench

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/taskpack"
)

// TestRunStreamedLocalEquivalence: a capacity-paced run (concurrency 0,
// GOMAXPROCS for a LocalDispatcher) renders the same bytes as the
// sequential Run.
func TestRunStreamedLocalEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation")
	}
	models, rep := sharedReport(t)
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), NewLocalDispatcherIn(taskpack.Builtin(), models, 1), 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("streamed report differs from sequential in-process run")
	}
}

// TestRunStreamedElasticMembership: in a capacity-paced run (concurrency 0),
// a replica added mid-stream picks up load — the capacity poll sees the
// fleet grow — and the report is still byte-identical.
func TestRunStreamedElasticMembership(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	a := &testReplica{models: models, failAfter: -1}
	b := &testReplica{models: models, failAfter: -1}
	urls := startReplicas(t, a, b)
	rd, err := NewRemoteDispatcher(urls[:1], RemoteOptions{InFlight: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()

	joined := make(chan error, 1)
	go func() {
		// Join b once a has demonstrably started serving, mid-stream.
		deadline := time.Now().Add(10 * time.Second)
		for a.served.Load() < 3 && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		joined <- rd.AddReplica(urls[1])
	}()
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-joined; err != nil {
		t.Fatalf("mid-stream AddReplica: %v", err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("streamed report with a mid-run join differs from sequential run")
	}
	if b.served.Load() == 0 {
		t.Error("the replica added mid-stream never served a cell")
	}
	if a.served.Load()+b.served.Load() != int64(len(GridCellsIn(taskpack.Builtin(), 3))) {
		t.Errorf("replicas served %d+%d cells, want %d", a.served.Load(), b.served.Load(), len(GridCellsIn(taskpack.Builtin(), 3)))
	}
}

// TestRunStreamedAllDown: with every replica failing and probing disabled,
// a capacity-paced run must surface the terminal error instead of parking
// on the capacity poll (the zero capacity is floored at one cell).
func TestRunStreamedAllDown(t *testing.T) {
	if testing.Short() {
		t.Skip("grid fan-out over HTTP")
	}
	models, _ := sharedReport(t)
	dead := &testReplica{models: models, failAfter: 0}
	rd, err := NewRemoteDispatcher(startReplicas(t, dead), RemoteOptions{ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rd.Close()
	if _, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 1, 0); err == nil ||
		!strings.Contains(err.Error(), "all replicas failed") {
		t.Fatalf("stream over dead replicas must fail, got %v", err)
	}
}

// TestRunStreamedPlumbing: at concurrency 0, runs<=0 aggregates the zeroed
// report without a single dispatch.
func TestRunStreamedPlumbing(t *testing.T) {
	called := false
	repo, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), fakeDispatcher(func(context.Context, Cell) ([]agent.Outcome, error) {
		called = true
		return nil, errors.New("no cell should dispatch")
	}), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if called {
		t.Error("runs=0 dispatched a cell")
	}
	if len(repo.Rows) != len(Matrix()) || repo.Rows[0].Total != 0 {
		t.Errorf("report rows out of shape: %d rows", len(repo.Rows))
	}
}

// TestRunDispatchedCancellationOrdering pins the error-precedence contract
// at a fixed cap ("dispatched", concurrency 2) and at the dispatcher's own
// capacity ("streamed", concurrency 0): a dispatch error always beats the
// cancellation it triggers, and a pure external cancellation surfaces as
// ctx.Err().
func TestRunDispatchedCancellationOrdering(t *testing.T) {
	run := func(name string, f func(ctx context.Context, d Dispatcher, runs int) (*Report, error)) {
		t.Run(name+"/canceled while feeding", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			started := make(chan struct{}, 1)
			go func() {
				<-started
				cancel()
			}()
			_, err := f(ctx, fakeDispatcher(func(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
				select {
				case started <- struct{}{}:
				default:
				}
				<-ctx.Done() // block until the external cancel lands
				return nil, ctx.Err()
			}), 1)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
		t.Run(name+"/dispatch error beats collateral cancel", func(t *testing.T) {
			boom := errors.New("boom")
			var calls atomic.Int64
			_, err := f(context.Background(), fakeDispatcher(func(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
				if calls.Add(1) == 1 {
					return nil, boom
				}
				// Later cells see the cancellation the first error caused;
				// their ctx.Err returns must not displace it.
				<-ctx.Done()
				return nil, ctx.Err()
			}), 1)
			if !errors.Is(err, boom) {
				t.Fatalf("first dispatch error must win, got %v", err)
			}
		})
		t.Run(name+"/external cancel with healthy dispatcher", func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var once sync.Once
			_, err := f(ctx, fakeDispatcher(func(ctx context.Context, cell Cell) ([]agent.Outcome, error) {
				once.Do(cancel)
				return make([]agent.Outcome, cell.Runs), nil
			}), 1)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("pure external cancel must return ctx.Err, got %v", err)
			}
		})
	}
	run("dispatched", func(ctx context.Context, d Dispatcher, runs int) (*Report, error) {
		return RunDispatchedIn(ctx, taskpack.Builtin(), d, runs, 2)
	})
	run("streamed", func(ctx context.Context, d Dispatcher, runs int) (*Report, error) {
		return RunDispatchedIn(ctx, taskpack.Builtin(), d, runs, 0)
	})
}
