package bench

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/serveproto"
	"repro/internal/ung"
)

// maxRipSenders caps the RemoteExpander's sender pool. The natural pool size
// is the fleet's dispatch capacity (replicas × in-flight cap) — more senders
// than that can only queue on slots — and the cap keeps a huge fleet from
// spawning goroutines the coordinator's LIFO consumption can't use.
const maxRipSenders = 32

// RemoteExpander shards a rip's frame expansions across N dmi-serve
// replicas over POST /v1/rip — the ung.Expander seam implemented on the
// dispatcher's fleet machinery. Each envelope picks the least-loaded live
// replica (equal-load ties rotate round-robin), bounded by the per-replica
// in-flight cap. A transport error, a 5xx, or a malformed response marks
// the replica down — handing it to the same half-open /v1/healthz prober the
// cell dispatcher uses — and the frames it failed are re-dispatched to
// another replica: the whole envelope when the envelope failed, only the
// faulted frames when the replica failed individual frames (failover holds
// the verdict table cells and frames share). Re-dispatch is safe because
// an expansion is idempotent by construction: it is a function of (app,
// context, click path) on a cursor over a fresh instance, so a frame that
// died with its replica mid-expansion produces the same differential
// capture anywhere else. A 4xx or a pack mismatch is the request's fault,
// not the replica's: it is delivered as a final per-frame error without
// marking anything down.
//
// The expander pops stacked frames most-recent-first and coalesces up to
// the configured batch of same-context frames per envelope — the LIFO
// discipline means the frames a coordinator will wait on soonest are the
// ones in flight, so all speculative work stays useful work.
type RemoteExpander struct {
	d     *RemoteDispatcher
	app   string
	batch int

	stack   *frameStack
	wg      sync.WaitGroup
	senders int
}

// NewRemoteExpander validates the replica list and builds an expander for
// one application's rip. opt is interpreted exactly as for
// NewRemoteDispatcher, except that Batch coalesces rip frames per envelope
// (clamped to serveproto.MaxRipFrames, default 1).
func NewRemoteExpander(baseURLs []string, app string, opt RemoteOptions) (*RemoteExpander, error) {
	if app == "" {
		return nil, errors.New("bench: remote expander needs an app name")
	}
	batch := opt.Batch
	if batch < 1 {
		batch = 1
	}
	if batch > serveproto.MaxRipFrames {
		batch = serveproto.MaxRipFrames
	}
	opt.Batch = 0 // the fleet's dispatcher takes no Batch; frames batch here
	d, err := NewRemoteDispatcher(baseURLs, opt)
	if err != nil {
		return nil, err
	}
	re := &RemoteExpander{
		d:     d,
		app:   app,
		batch: batch,
		stack: newFrameStack(),
	}
	re.senders = min(len(baseURLs)*d.inflight, maxRipSenders)
	re.wg.Add(re.senders)
	for i := 0; i < re.senders; i++ {
		go re.sender()
	}
	return re, nil
}

// Expand stacks the frame for the fleet and returns its result channel.
// After Close the result is an immediate error (the coordinator only does
// this on an abort path it is already failing out of).
func (re *RemoteExpander) Expand(ctx string, f ung.Frame) <-chan ung.ExpandResult {
	return re.stack.push(ctx, f)
}

// Close drains the expander: undispatched frames are dropped (their
// buffered result channels are garbage collected — no goroutine or channel
// leaks on an aborted rip), in-flight envelopes run to completion, and the
// fleet's probers stop. It reports the sender pool's width. Idempotent.
func (re *RemoteExpander) Close() ung.ExpanderStats {
	re.stack.close()
	re.wg.Wait()
	re.d.Close()
	return ung.ExpanderStats{Workers: re.senders}
}

// Stats snapshots every replica's share of the sharded rip (the Cells
// counter counts expanded frames here).
func (re *RemoteExpander) Stats() []ReplicaStats { return re.d.Stats() }

// Retries reports how many attempts failed at a replica and sent their
// frames back through replica selection.
func (re *RemoteExpander) Retries() int { return re.d.Retries() }

// AddReplica joins a replica to the fleet mid-rip; see membership.go.
func (re *RemoteExpander) AddReplica(baseURL string) error { return re.d.AddReplica(baseURL) }

// RemoveReplica retires a replica mid-rip; see membership.go.
func (re *RemoteExpander) RemoveReplica(baseURL string) error { return re.d.RemoveReplica(baseURL) }

// sender is one dispatch worker: pop the most recent same-context frames
// and ship them as one envelope through failover. Exits when the stack is
// closed and drained.
func (re *RemoteExpander) sender() {
	defer re.wg.Done()
	for {
		items := re.stack.popBatch(re.batch)
		if items == nil {
			return
		}
		// No deadline: a rip has no caller to give up, and the client
		// timeout bounds every attempt.
		failover(context.Background(), re.d, items, re.postRip, deliverFrame)
	}
}

func deliverFrame(it *stackedFrame, exp ung.Expansion, err error) {
	it.deliver(ung.ExpandResult{Expansion: exp, Err: err})
}

// postRip is the rip envelope for failover: one POST /v1/rip round trip
// whose response must carry one result per frame, in order. A frame
// answered 200 with a decodable expansion succeeds; a per-frame 4xx is the
// frame's own final rejection (*requestError); anything else — a per-frame
// 5xx, or an expansion this client cannot decode (protocol skew) — is the
// replica's fault for that frame alone.
func (re *RemoteExpander) postRip(ctx context.Context, rep *replica, items []*stackedFrame) ([]answer[ung.Expansion], error) {
	frames := make([]serveproto.RipFrame, len(items))
	for i, it := range items {
		frames[i] = serveproto.RipFrame{ID: it.frame.ID, Path: it.frame.Path}
	}
	body := serveproto.RipRequest{
		Pack: re.d.pack, PackHash: re.d.packHash,
		App: re.app, Context: items[0].ctx, Frames: frames,
	}
	var rr serveproto.RipResponse
	size := http.Header{serveproto.RipBatchHeader: {strconv.Itoa(len(frames))}}
	if err := re.d.postEnvelope(ctx, rep, serveproto.PathRip, size, body, &rr); err != nil {
		return nil, err
	}
	if len(rr.Results) != len(frames) {
		return nil, fmt.Errorf("response carries %d results for %d frames", len(rr.Results), len(frames))
	}
	out := make([]answer[ung.Expansion], len(frames))
	for i, res := range rr.Results {
		switch {
		case res.Status == http.StatusOK && res.Expansion != nil:
			out[i].res, out[i].err = res.Expansion.Expansion()
		case res.Status >= 400 && res.Status < 500:
			out[i].err = &requestError{msg: fmt.Sprintf("frame %q: status %d: %s", frames[i].ID, res.Status, res.Error)}
		default:
			out[i].err = fmt.Errorf("frame %q: status %d: %s", frames[i].ID, res.Status, res.Error)
		}
	}
	return out, nil
}

// stackedFrame is one frame expansion parked on a frameStack.
type stackedFrame struct {
	ctx   string
	frame ung.Frame
	done  chan ung.ExpandResult // buffered: senders never block on the coordinator
}

// deliver answers the Expand call that stacked the frame. Call it exactly
// once per popped frame.
func (s *stackedFrame) deliver(r ung.ExpandResult) { s.done <- r }

// frameStack is the LIFO work queue the expander's senders pop from. LIFO
// matters: the coordinator consumes results in stack order, so the most
// recently pushed frames are the ones it will wait on soonest, and those are
// what senders should ship first.
type frameStack struct {
	mu     sync.Mutex
	cond   *sync.Cond
	frames []*stackedFrame
	closed bool
}

func newFrameStack() *frameStack {
	s := &frameStack{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// push parks the frame and returns the channel its result will arrive on.
// On a closed stack nothing is parked and the channel already holds a
// "closed" error.
func (s *frameStack) push(ctx string, f ung.Frame) <-chan ung.ExpandResult {
	sf := &stackedFrame{ctx: ctx, frame: f, done: make(chan ung.ExpandResult, 1)}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		sf.deliver(ung.ExpandResult{Err: errors.New("bench: expander closed")})
		return sf.done
	}
	s.frames = append(s.frames, sf)
	s.mu.Unlock()
	s.cond.Signal()
	return sf.done
}

// popBatch blocks until work is available, then returns up to max frames
// from the top of the stack that share one context (an envelope addresses
// exactly one app context). It returns nil once the stack is closed.
func (s *frameStack) popBatch(max int) []*stackedFrame {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.frames) == 0 && !s.closed {
		s.cond.Wait()
	}
	if len(s.frames) == 0 {
		return nil
	}
	top := s.frames[len(s.frames)-1]
	batch := []*stackedFrame{top}
	s.frames = s.frames[:len(s.frames)-1]
	for len(batch) < max && len(s.frames) > 0 && s.frames[len(s.frames)-1].ctx == top.ctx {
		batch = append(batch, s.frames[len(s.frames)-1])
		s.frames = s.frames[:len(s.frames)-1]
	}
	return batch
}

// close wakes every sender and drops undispatched frames (relevant only
// when the coordinator aborts); their buffered result channels are garbage
// collected. Idempotent.
func (s *frameStack) close() {
	s.mu.Lock()
	s.closed = true
	s.frames = nil
	s.mu.Unlock()
	s.cond.Broadcast()
}
