package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"repro/internal/agent"
	"repro/internal/appkit"
	"repro/internal/serveproto"
	"repro/internal/ung"
)

// ripPoolCap is how many warm application instances a replica keeps per app
// for /v1/rip. An instance is cheap to build but not free; keeping a small
// pool means a coordinator's steady frame stream never pays instance
// construction on the hot path, while a burst beyond the pool just builds
// throwaway instances that are dropped on return.
const ripPoolCap = 8

// ripPool caches warm application instances per app across /v1/rip
// requests, each with the ung.Cursor that drives it. Reuse is safe by
// construction: a cursor rewinds its instance to a checkpoint on the
// frame's own click path, or to the state it found the instance in, before
// it expands a frame, so a frame's expansion is a pure function of (app,
// context, frame) no matter what the instance did before — the same
// argument that makes cross-replica re-dispatch safe makes instance reuse
// safe. A cursor keeps its checkpoints between requests, so the envelopes
// of one rip, which carry sibling frames, expand from them.
type ripPool struct {
	mu   sync.Mutex
	free map[string]chan *ung.Cursor
}

func newRipPool() *ripPool {
	return &ripPool{free: make(map[string]chan *ung.Cursor)}
}

func (p *ripPool) lane(app string) chan *ung.Cursor {
	p.mu.Lock()
	defer p.mu.Unlock()
	ch, ok := p.free[app]
	if !ok {
		ch = make(chan *ung.Cursor, ripPoolCap)
		p.free[app] = ch
	}
	return ch
}

// get returns a warm cursor or one on a fresh instance.
func (p *ripPool) get(app string, factory func() *appkit.App) *ung.Cursor {
	select {
	case cur := <-p.lane(app):
		return cur
	default:
		return ung.NewCursor(factory())
	}
}

// put returns a cursor to the pool, dropping it when the pool is full.
func (p *ripPool) put(app string, cur *ung.Cursor) {
	select {
	case p.lane(app) <- cur:
	default:
	}
}

// handleRip is POST /v1/rip: expand up to MaxRipFrames frames of one
// application context on this replica's own instances and return the
// differential captures. The pack handshake and the app/context resolution
// are request-level (409/404 reject the whole envelope); everything past
// them is per-frame, each frame carrying the status it would have gotten
// alone so one malformed frame never poisons its envelope-mates.
func (s *server) handleRip(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	// Body cap scaled by the declared frame count: the declaration sizes
	// the MaxBytesReader before a byte is read, and the decoded envelope
	// is re-checked against MaxRipFrames by ParseRipRequest.
	declared, _ := strconv.Atoi(r.Header.Get(serveproto.RipBatchHeader))
	limit := serveproto.RipRequestBytes(declared)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes (declare the frame count in %s)",
				limit, serveproto.RipBatchHeader), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad request body: %v", err), http.StatusBadRequest)
		return
	}
	req, err := serveproto.ParseRipRequest(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.rejectPackMismatch(w, req.Pack, req.PackHash) {
		return
	}
	factory, ok := agent.Factories()[req.App]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown app %q", req.App), http.StatusNotFound)
		return
	}
	cur := s.rip.get(req.App, factory)
	defer s.rip.put(req.App, cur)
	// An unknown context would not fail loudly on the instance (the cursor
	// ignores EnterContext errors, by design for the "" base context), but
	// expanding a frame in the wrong context would return
	// wrong-but-plausible reveals — a silent catalog skew between the
	// coordinator's probe and this replica. Reject it before touching a
	// frame.
	if req.Context != "" && !knownContext(cur.App(), req.Context) {
		http.Error(w, fmt.Sprintf("unknown context %q for app %q", req.Context, req.App), http.StatusNotFound)
		return
	}

	results := make([]serveproto.RipResult, len(req.Frames))
	expanded := 0
	for i, wf := range req.Frames {
		if err := serveproto.ValidateRipFrame(wf); err != nil {
			results[i] = serveproto.RipResult{Status: http.StatusBadRequest, Error: err.Error()}
			continue
		}
		exp := cur.Expand(req.Context, ung.Frame{ID: wf.ID, Path: wf.Path})
		we := serveproto.FromExpansion(exp)
		results[i] = serveproto.RipResult{Status: http.StatusOK, Expansion: &we}
		expanded++
	}

	s.mu.Lock()
	s.expansions += int64(expanded)
	s.mu.Unlock()

	writeJSON(w, serveproto.RipResponse{App: req.App, Context: req.Context, Results: results})
}

// knownContext reports whether the app registers the named context.
func knownContext(app *appkit.App, name string) bool {
	for _, c := range app.Contexts() {
		if c.Name == name {
			return true
		}
	}
	return false
}
