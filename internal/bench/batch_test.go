package bench

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/agent"
	"repro/internal/osworld"
	"repro/internal/taskpack"
)

// batchedDispatcher builds a RemoteDispatcher with coalescing enabled and a
// test-friendly linger: long enough that a burst of concurrent dispatches
// deterministically lands in one batch when the test wants it to.
func batchedDispatcher(t *testing.T, urls []string, opt RemoteOptions, linger time.Duration) *RemoteDispatcher {
	t.Helper()
	rd, err := NewRemoteDispatcher(urls, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rd.Close)
	// Safe before the first Dispatch: the collector only reads the linger
	// after receiving an item, which the enqueue channel orders after this
	// write.
	rd.linger = linger
	return rd
}

// TestRemoteDispatcherBatchEquivalence: two v1 replicas, full grid, batching
// on — the report must be byte-identical to the sequential in-process run,
// with every cell delivered through the batch surface and zero retries.
func TestRemoteDispatcherBatchEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	a := &testReplica{models: models, failAfter: -1}
	b := &testReplica{models: models, failAfter: -1}
	rd := batchedDispatcher(t, startReplicas(t, a, b), RemoteOptions{InFlight: 4, Batch: 8}, batchLinger)
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("batched remote report differs from sequential in-process run")
	}
	cells := int64(len(GridCellsIn(taskpack.Builtin(), 3)))
	if served := a.served.Load() + b.served.Load(); served != cells {
		t.Errorf("replicas served %d cells, want %d", served, cells)
	}
	if viaBatch := a.batchCells.Load() + b.batchCells.Load(); viaBatch != cells {
		t.Errorf("%d of %d cells were delivered, want all", viaBatch, cells)
	}
	if a.batchCalls.Load() == 0 || b.batchCalls.Load() == 0 {
		t.Errorf("batch sharding is lopsided: %d vs %d envelopes", a.batchCalls.Load(), b.batchCalls.Load())
	}
	if rd.Retries() != 0 {
		t.Errorf("healthy batched replicas produced %d retries", rd.Retries())
	}
	checkRetryLedger(t, rd)
}

// TestRemoteDispatcherBatchCoalesces pins the transport amortization itself:
// four concurrent dispatches against a batch-of-4 dispatcher with a long
// linger must arrive as exactly one POST /v1/cells carrying four cells.
func TestRemoteDispatcherBatchCoalesces(t *testing.T) {
	if testing.Short() {
		t.Skip("starts HTTP servers")
	}
	models, _ := sharedReport(t)
	tr := &testReplica{models: models, failAfter: -1}
	rd := batchedDispatcher(t, startReplicas(t, tr), RemoteOptions{Batch: 4}, 2*time.Second)
	settings, tasks := Matrix(), osworld.All()
	cells := []Cell{
		{Task: tasks[0].ID, Setting: settings[0].Label, Runs: 1},
		{Task: tasks[1].ID, Setting: settings[0].Label, Runs: 1},
		{Task: tasks[0].ID, Setting: settings[1].Label, Runs: 1},
		{Task: tasks[1].ID, Setting: settings[1].Label, Runs: 1},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	outs := make([][]agent.Outcome, len(cells))
	for i, cell := range cells {
		wg.Add(1)
		go func(i int, cell Cell) {
			defer wg.Done()
			outs[i], errs[i] = rd.Dispatch(context.Background(), cell)
		}(i, cell)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d: %v", i, err)
		}
		if len(outs[i]) != 1 {
			t.Fatalf("cell %d: %d outcomes, want 1", i, len(outs[i]))
		}
	}
	if calls := tr.batchCalls.Load(); calls != 1 {
		t.Errorf("4 concurrent dispatches produced %d batch envelopes, want 1", calls)
	}
	if n := tr.batchCells.Load(); n != 4 {
		t.Errorf("the batch carried %d cells, want 4", n)
	}
}

// TestRemoteDispatcherBatchFailover: a v1 replica that dies mid-grid fails
// its batch envelopes; the envelopes must fail over to the survivor, the
// report must still match the sequential
// run byte-for-byte, and the retry ledger must stay consistent with the
// per-replica failure counters.
func TestRemoteDispatcherBatchFailover(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	flaky := &testReplica{models: models, failAfter: 10}
	healthy := &testReplica{models: models, failAfter: -1}
	rd := batchedDispatcher(t, startReplicas(t, flaky, healthy), RemoteOptions{InFlight: 4, Batch: 4}, batchLinger)
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 8)
	if err != nil {
		t.Fatalf("batched failover should absorb the replica failure: %v", err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("batched report after mid-grid failover differs from sequential run")
	}
	if rd.Retries() < 1 {
		t.Error("the failed batch was never counted as a re-dispatch")
	}
	checkRetryLedger(t, rd)
	if stats := rd.Stats(); !stats[0].Down || stats[1].Down {
		t.Errorf("down-marks landed on the wrong replica: %+v", stats)
	}
	if total := flaky.served.Load() + healthy.served.Load(); total != int64(len(GridCellsIn(taskpack.Builtin(), 3))) {
		t.Errorf("replicas served %d cells, want %d", total, len(GridCellsIn(taskpack.Builtin(), 3)))
	}
}

// TestRemoteDispatcherBatchBadCellIsFinal: one invalid cell inside a batch
// must surface as that cell's own final 4xx while its three batch-mates
// succeed untouched — the per-cell status contract that keeps one typo from
// poisoning a whole envelope. The replica is never at fault, so nothing is
// down-marked and nothing retries.
func TestRemoteDispatcherBatchBadCellIsFinal(t *testing.T) {
	if testing.Short() {
		t.Skip("starts HTTP servers")
	}
	models, _ := sharedReport(t)
	tr := &testReplica{models: models, failAfter: -1}
	rd := batchedDispatcher(t, startReplicas(t, tr), RemoteOptions{Batch: 4}, 2*time.Second)
	settings, tasks := Matrix(), osworld.All()
	cells := []Cell{
		{Task: tasks[0].ID, Setting: settings[0].Label, Runs: 1},
		{Task: "no-such-task", Setting: settings[0].Label, Runs: 1},
		{Task: tasks[1].ID, Setting: settings[0].Label, Runs: 1},
		{Task: tasks[2].ID, Setting: settings[0].Label, Runs: 1},
	}
	var wg sync.WaitGroup
	errs := make([]error, len(cells))
	for i, cell := range cells {
		wg.Add(1)
		go func(i int, cell Cell) {
			defer wg.Done()
			_, errs[i] = rd.Dispatch(context.Background(), cell)
		}(i, cell)
	}
	wg.Wait()
	if errs[1] == nil || !strings.Contains(errs[1].Error(), "unknown task") {
		t.Fatalf("the bad cell must fail with its own 404, got %v", errs[1])
	}
	for _, i := range []int{0, 2, 3} {
		if errs[i] != nil {
			t.Errorf("cell %d poisoned by its bad batch-mate: %v", i, errs[i])
		}
	}
	if stats := rd.Stats(); stats[0].Down {
		t.Error("a bad cell must not down the replica")
	}
	if rd.Retries() != 0 {
		t.Errorf("a bad cell must not retry, got %d retries", rd.Retries())
	}
	checkRetryLedger(t, rd)
}

// TestRemoteDispatcherBatchEnvelopeRefusedFallsBack: a replica that
// refuses a multi-cell envelope as a whole (a request-level 4xx) is not
// judging the cells, so each one is re-sent as its own one-cell envelope —
// the run succeeds, the replica stays up, and nothing counts as a retry.
func TestRemoteDispatcherBatchEnvelopeRefusedFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("starts HTTP servers")
	}
	models, _ := sharedReport(t)
	tr := &testReplica{models: models, failAfter: -1, maxCells: 1}
	rd := batchedDispatcher(t, startReplicas(t, tr), RemoteOptions{Batch: 4}, 2*time.Second)
	settings, tasks := Matrix(), osworld.All()
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			cell := Cell{Task: tasks[i].ID, Setting: settings[0].Label, Runs: 1}
			_, errs[i] = rd.Dispatch(context.Background(), cell)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("cell %d after the refused envelope: %v", i, err)
		}
	}
	if tr.served.Load() != 3 || tr.batchCalls.Load() != 3 {
		t.Errorf("replica served %d cells in %d envelopes, want 3 one-cell envelopes",
			tr.served.Load(), tr.batchCalls.Load())
	}
	if stats := rd.Stats(); stats[0].Down {
		t.Error("a refused envelope must not down the replica")
	}
	if rd.Retries() != 0 {
		t.Errorf("a refused envelope must not count as a retry, got %d", rd.Retries())
	}
	checkRetryLedger(t, rd)
}

// TestRunStreamedBatchedEquivalence: capacity pacing (concurrency 0) and
// batching compose — cells coalesce transparently and the report still
// renders byte-identically to the sequential run.
func TestRunStreamedBatchedEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("full-matrix evaluation over HTTP")
	}
	models, rep := sharedReport(t)
	a := &testReplica{models: models, failAfter: -1}
	b := &testReplica{models: models, failAfter: -1}
	rd := batchedDispatcher(t, startReplicas(t, a, b), RemoteOptions{InFlight: 4, Batch: 8}, batchLinger)
	got, err := RunDispatchedIn(context.Background(), taskpack.Builtin(), rd, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if renderAll(models, got) != renderAll(models, rep) {
		t.Fatal("streamed batched report differs from sequential in-process run")
	}
	if max(a.maxEnvelope.Load(), b.maxEnvelope.Load()) < 2 {
		t.Error("no envelope ever carried more than one cell under streaming")
	}
}

// TestRunStreamedShipsFullBatches: Capacity counts the batch factor, so a
// capacity-paced run at one in-flight envelope per replica keeps a full
// batch of cells in flight and every envelope but the grid's last ships
// full. A capacity of one cell per slot would ship one-cell envelopes, each
// held open for the whole linger.
func TestRunStreamedShipsFullBatches(t *testing.T) {
	a := &verdictStub{}
	urls := startRipReplicas(t, a)
	rd := batchedDispatcher(t, urls, RemoteOptions{InFlight: 1, Batch: 4}, time.Second)
	if got := rd.Capacity(); got != 4 {
		t.Errorf("Capacity() = %d, want 1 replica × 1 in flight × batch 4", got)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if _, err := RunDispatchedIn(ctx, taskpack.Builtin(), rd, 1, 0); err != nil {
		t.Fatalf("streamed run: %v (%d envelopes shipped)", err, a.envelopes.Load())
	}
	cells := int64(len(GridCellsIn(taskpack.Builtin(), 1)))
	if got, want := a.envelopes.Load(), (cells+3)/4; got != want {
		t.Errorf("%d cells shipped in %d envelopes, want %d full ones", cells, got, want)
	}
}

// TestDispatchRacingCloseReturns: Dispatch calls racing Close must all
// return — none may hand its cell to a collector that has stopped reading.
func TestDispatchRacingCloseReturns(t *testing.T) {
	urls := startRipReplicas(t, &verdictStub{})
	for round := 0; round < 20; round++ {
		rd := batchedDispatcher(t, urls, RemoteOptions{Batch: 4}, batchLinger)
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := rd.Dispatch(context.Background(), Cell{Task: fmt.Sprintf("task-%d", i), Setting: "s", Runs: 1}); err != nil {
					t.Errorf("dispatch racing Close: %v", err)
				}
			}()
			if i == round {
				rd.Close()
			}
		}
		done := make(chan struct{})
		go func() {
			wg.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Dispatch calls racing Close never returned", round)
		}
	}
}
