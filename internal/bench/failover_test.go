package bench

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/agent"
	"repro/internal/serveproto"
	"repro/internal/ung"
)

// verdictStub answers POST /v1/cells and POST /v1/rip by one row of
// failover's verdict table, without models: a 200 cell echoes itself with
// zeroed outcomes, a 200 frame carries a skipped expansion. A cell request
// carries one item, so its HTTP status is that of the item it stands for.
type verdictStub struct {
	envStatus  int         // answer every envelope with this status and envBody (0 = answer per item)
	envBody    string      //
	maxItems   int         // answer 400 to envelopes carrying more items (0 = no limit)
	itemStatus map[int]int // per-item status by position in the envelope (default 200)
	cellItem   int         // the envelope position whose itemStatus a cell request gets
	hangUp     bool        // drop the connection without answering: a transport error
	hold       chan struct{}
	entered    chan int // receives each envelope's item count once it is read

	envelopes atomic.Int64
	aborted   atomic.Int64 // envelopes whose client gave up while held
}

func (s *verdictStub) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var cell serveproto.SessionRequest
	var rip serveproto.RipRequest
	var err error
	n := 1
	switch r.URL.Path {
	case serveproto.PathCells:
		cell, err = serveproto.DecodeSessionRequest(r.Body)
	case serveproto.PathRip:
		err = json.NewDecoder(r.Body).Decode(&rip)
		n = len(rip.Frames)
	default:
		http.NotFound(w, r)
		return
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.envelopes.Add(1)
	if s.entered != nil {
		s.entered <- n
	}
	if s.hold != nil {
		select {
		case <-s.hold:
		case <-r.Context().Done():
			s.aborted.Add(1)
			return
		}
	}
	switch {
	case s.hangUp:
		conn, _, err := w.(http.Hijacker).Hijack()
		if err == nil {
			conn.Close()
		}
		return
	case s.envStatus != 0:
		w.WriteHeader(s.envStatus)
		io.WriteString(w, s.envBody)
		return
	case s.maxItems > 0 && n > s.maxItems:
		http.Error(w, "envelope too large", http.StatusBadRequest)
		return
	}
	status := func(i int) int {
		if st, ok := s.itemStatus[i]; ok {
			return st
		}
		return http.StatusOK
	}
	var resp any
	if r.URL.Path == serveproto.PathCells {
		if st := status(s.cellItem); st != http.StatusOK {
			http.Error(w, "injected", st)
			return
		}
		resp = serveproto.SessionResponse{Task: cell.Task, Setting: cell.Setting, Runs: cell.Runs,
			Outcomes: make([]agent.Outcome, cell.Runs)}
	} else {
		rr := serveproto.RipResponse{Results: make([]serveproto.RipResult, n)}
		for i := range rip.Frames {
			rr.Results[i] = serveproto.RipResult{Status: status(i), Error: "injected"}
			if rr.Results[i].Status == http.StatusOK {
				we := serveproto.FromExpansion(ung.Expansion{Outcome: ung.ExpandSkipped})
				rr.Results[i] = serveproto.RipResult{Status: http.StatusOK, Expansion: &we}
			}
		}
		resp = rr
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// envelopeKind runs n items of one envelope kind through failover against a
// dispatcher and returns each item's delivered error (nil = delivered a
// well-formed result). A kind that is not multi carries exactly one item.
type envelopeKind struct {
	multi bool
	run   func(ctx context.Context, d *RemoteDispatcher, n int) []error
}

var envelopeKinds = map[string]envelopeKind{
	"cells": {run: func(ctx context.Context, d *RemoteDispatcher, _ int) []error {
		outcomes, err := d.Dispatch(ctx, Cell{Task: "task-0", Setting: "s", Runs: 2})
		if err == nil && len(outcomes) != 2 {
			err = fmt.Errorf("%d outcomes delivered, want 2", len(outcomes))
		}
		return []error{err}
	}},
	"rip frames": {multi: true, run: func(ctx context.Context, d *RemoteDispatcher, n int) []error {
		re := &RemoteExpander{d: d, app: "Demo"}
		stack := newFrameStack()
		results := make([]<-chan ung.ExpandResult, n)
		for i := n - 1; i >= 0; i-- { // LIFO: frame-0 pops first, so envelope order is index order
			results[i] = stack.push("", ung.Frame{ID: fmt.Sprintf("frame-%d", i)})
		}
		failover(ctx, d, stack.popBatch(n), re.postRip, deliverFrame)
		errs := make([]error, n)
		for i, ch := range results {
			r := <-ch
			if errs[i] = r.Err; r.Err == nil && r.Expansion.Outcome != ung.ExpandSkipped {
				errs[i] = fmt.Errorf("expansion outcome %v delivered, want a skip", r.Expansion.Outcome)
			}
		}
		return errs
	}},
}

// TestFailoverVerdictTable drives every row of failover's verdict table
// through both envelope kinds: a cell, through Dispatch, hits each row as
// the one item of its request, standing for the row's item cell, and rows
// that need several items in one envelope run for rip frames only. Replica
// A answers by the row; replica B is healthy, and A is always picked first
// (an idle fleet's first pick is the first replica). Each row pins what
// every item was delivered, which replicas ended down, and the retry
// ledger.
func TestFailoverVerdictTable(t *testing.T) {
	mismatch, _ := json.Marshal(serveproto.PackMismatch{WantPack: "p", WantHash: "aa", HavePack: "other", HaveHash: "bb"})
	rows := []struct {
		name    string
		a       *verdictStub
		items   int
		multi   bool           // the row needs several items in one envelope
		cell    int            // the item a lone cell stands for
		cancel  bool           // cancel the caller once A has the envelope
		final   map[int]string // items that must fail, and a fragment of their error
		aDown   bool
		retries int
	}{
		{name: "item ok", a: &verdictStub{}, items: 2},
		{name: "item 4xx", a: &verdictStub{itemStatus: map[int]int{1: http.StatusNotFound}}, items: 2, cell: 1,
			final: map[int]string{1: "status 404"}},
		{name: "item 5xx", a: &verdictStub{itemStatus: map[int]int{1: http.StatusInternalServerError}}, items: 2, cell: 1,
			aDown: true, retries: 1},
		{name: "envelope 4xx, one item", a: &verdictStub{envStatus: http.StatusBadRequest, envBody: "refused"}, items: 1,
			final: map[int]string{0: "status 400"}},
		{name: "envelope 4xx, several items", a: &verdictStub{maxItems: 1}, items: 3, multi: true},
		{name: "well-formed 409", a: &verdictStub{envStatus: http.StatusConflict, envBody: string(mismatch)}, items: 2,
			final: map[int]string{0: "serves task pack other", 1: "serves task pack other"}},
		{name: "malformed 409", a: &verdictStub{envStatus: http.StatusConflict, envBody: "<html>502</html>"}, items: 2,
			aDown: true, retries: 1},
		{name: "transport error", a: &verdictStub{hangUp: true}, items: 2, aDown: true, retries: 1},
		{name: "cancelled caller", a: &verdictStub{hold: make(chan struct{})}, items: 2, cancel: true,
			final: map[int]string{0: "context canceled", 1: "context canceled"}},
	}
	for name, kind := range envelopeKinds {
		for _, row := range rows {
			items := row.items
			if !kind.multi {
				if row.multi {
					continue
				}
				items = 1
			}
			t.Run(name+"/"+row.name, func(t *testing.T) {
				a := &verdictStub{envStatus: row.a.envStatus, envBody: row.a.envBody, maxItems: row.a.maxItems,
					itemStatus: row.a.itemStatus, cellItem: row.cell, hangUp: row.a.hangUp, entered: make(chan int, 16)}
				if row.a.hold != nil {
					a.hold = make(chan struct{})
					defer close(a.hold) // before the servers' Cleanup closes
				}
				b := &verdictStub{}
				d, err := NewRemoteDispatcher(startRipReplicas(t, a, b), RemoteOptions{ProbeInterval: -1, Pack: "p", PackHash: "aa"})
				if err != nil {
					t.Fatal(err)
				}
				defer d.Close()
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if row.cancel {
					go func() {
						<-a.entered
						cancel()
					}()
				}
				errs := kind.run(ctx, d, items)
				for i, err := range errs {
					if !kind.multi {
						i = row.cell
					}
					want, fails := row.final[i]
					switch {
					case fails && (err == nil || !strings.Contains(err.Error(), want)):
						t.Errorf("item %d: got %v, want a final error containing %q", i, err, want)
					case !fails && err != nil:
						t.Errorf("item %d: not delivered: %v", i, err)
					}
				}
				stats := d.Stats()
				if stats[0].Down != row.aDown || stats[1].Down {
					t.Errorf("down marks: A %v, B %v; want A %v, B false", stats[0].Down, stats[1].Down, row.aDown)
				}
				if d.Retries() != row.retries {
					t.Errorf("Retries() = %d, want %d", d.Retries(), row.retries)
				}
				checkRetryLedger(t, d)
			})
		}
	}
}
