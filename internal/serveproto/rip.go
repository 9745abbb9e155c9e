package serveproto

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/uia"
	"repro/internal/ung"
)

// MaxRipFrames bounds one POST /v1/rip request. A rip envelope is a
// transport optimization: the coordinator coalesces whatever frames are
// stacked, and the cap keeps one envelope from pinning a replica for an
// unbounded stretch.
const MaxRipFrames = 64

// MaxRipPath bounds one frame's click path. Rip depth is capped at 10 by
// default and the hard ceiling leaves generous headroom; anything longer is
// a malformed request, not a deep exploration.
const MaxRipPath = 64

// RipBatchHeader declares a rip request's frame count ahead of the body, so
// the daemon can size its MaxBytesReader before reading a byte. It is the
// only size header on the wire: a POST /v1/cells carries one cell under the
// flat MaxRequestBytes cap.
const RipBatchHeader = "Dmi-Rip-Frames"

// RipRequestBytes is the body cap for a POST /v1/rip declaring n frames:
// the per-cell cap scaled by the declared frame count, clamped to
// [1, MaxRipFrames]. A frame is an id plus a click path of ids — far below
// the per-frame allowance — so a legitimate full envelope always fits.
func RipRequestBytes(n int) int64 {
	if n < 1 {
		n = 1
	}
	if n > MaxRipFrames {
		n = MaxRipFrames
	}
	return int64(n) * MaxRequestBytes
}

// RipFrame is one pending exploration shipped to a replica: activate the
// control after replaying the click path that made it visible. It mirrors
// ung.Frame on the wire.
type RipFrame struct {
	ID   string   `json:"id"`
	Path []string `json:"path,omitempty"`
}

// RipRequest is POST /v1/rip: expand up to MaxRipFrames frames of one
// application context on the replica's own instance pool. The pack handshake
// is request-level like a cell's (one Pack/PackHash pair per envelope)
// because a rip never mixes packs; a mismatch rejects the envelope with 409
// and a PackMismatch body. Expansion is a pure function of
// (app, context, frame) — replaying a request on any replica, or on the same
// replica twice, yields the same bytes, which is the entire failure-handling
// story for distributed rip: re-dispatch after a mid-rip replica death needs
// no deduplication, fencing, or sequencing.
type RipRequest struct {
	Pack     string     `json:"pack,omitempty"`
	PackHash string     `json:"pack_hash,omitempty"`
	App      string     `json:"app"`
	Context  string     `json:"context,omitempty"`
	Frames   []RipFrame `json:"frames"`
}

// Rip outcome labels on the wire, mirroring ung.ExpandOutcome. Strings, not
// ints: a skew between client and replica enum values must be a decode
// error, not a silently reinterpreted outcome.
const (
	RipOutcomeOK      = "ok"
	RipOutcomeSkipped = "skipped"
	RipOutcomeBlocked = "blocked"
)

// RipReveal is one newly revealed control within an expansion, mirroring
// ung.Reveal on the wire. Type uses the numeric uia.ControlType encoding the
// graph snapshot codec already commits to.
type RipReveal struct {
	ID        string          `json:"id"`
	Name      string          `json:"name,omitempty"`
	Type      uia.ControlType `json:"type"`
	Desc      string          `json:"desc,omitempty"`
	LargeEnum bool            `json:"large_enum,omitempty"`
	Parent    string          `json:"parent"`
}

// RipExpansion is one frame's differential capture, mirroring ung.Expansion.
// SimNanos is the expansion's simulated-clock cost on the replica instance,
// so the coordinator can report per-replica modeling time.
type RipExpansion struct {
	Outcome   string      `json:"outcome"`
	Reveals   []RipReveal `json:"reveals,omitempty"`
	Clicks    int         `json:"clicks"`
	Snapshots int         `json:"snapshots"`
	SimNanos  int64       `json:"sim_nanos"`
}

// FromExpansion converts an in-process expansion to its wire form.
func FromExpansion(exp ung.Expansion) RipExpansion {
	we := RipExpansion{
		Clicks:    exp.Clicks,
		Snapshots: exp.Snapshots,
		SimNanos:  int64(exp.Elapsed),
	}
	switch exp.Outcome {
	case ung.ExpandSkipped:
		we.Outcome = RipOutcomeSkipped
	case ung.ExpandBlocked:
		we.Outcome = RipOutcomeBlocked
	default:
		we.Outcome = RipOutcomeOK
	}
	for _, r := range exp.Reveals {
		we.Reveals = append(we.Reveals, RipReveal{
			ID:        r.ID,
			Name:      r.Name,
			Type:      r.Type,
			Desc:      r.Desc,
			LargeEnum: r.LargeEnum,
			Parent:    r.Parent,
		})
	}
	return we
}

// Expansion converts the wire form back for the coordinator's apply loop.
// An unknown outcome label is a protocol skew and decodes to an error — the
// dispatcher treats it like any other malformed response (replica failure,
// frame re-dispatched elsewhere).
func (we RipExpansion) Expansion() (ung.Expansion, error) {
	exp := ung.Expansion{
		Clicks:    we.Clicks,
		Snapshots: we.Snapshots,
		Elapsed:   time.Duration(we.SimNanos),
	}
	switch we.Outcome {
	case RipOutcomeOK:
		exp.Outcome = ung.ExpandOK
	case RipOutcomeSkipped:
		exp.Outcome = ung.ExpandSkipped
	case RipOutcomeBlocked:
		exp.Outcome = ung.ExpandBlocked
	default:
		return ung.Expansion{}, fmt.Errorf("serveproto: unknown rip outcome %q", we.Outcome)
	}
	for _, r := range we.Reveals {
		exp.Reveals = append(exp.Reveals, ung.Reveal{
			ID:        r.ID,
			Name:      r.Name,
			Type:      r.Type,
			Desc:      r.Desc,
			LargeEnum: r.LargeEnum,
			Parent:    r.Parent,
		})
	}
	return exp, nil
}

// RipResult is one frame's result within a rip response. Frames fail
// independently: Status carries the HTTP status the frame would have gotten
// alone (200, 400, ...), with Error naming the rejection, so one malformed
// frame does not poison its envelope-mates.
type RipResult struct {
	Status    int           `json:"status"`
	Error     string        `json:"error,omitempty"`
	Expansion *RipExpansion `json:"expansion,omitempty"`
}

// RipResponse answers POST /v1/rip with one result per requested frame, in
// request order.
type RipResponse struct {
	App     string      `json:"app"`
	Context string      `json:"context,omitempty"`
	Results []RipResult `json:"results"`
}

// ParseRipRequest decodes and validates a POST /v1/rip envelope. Envelope
// errors (unparseable body, missing app, no frames, too many frames) reject
// the whole request; per-frame defects are the handler's business via
// ValidateRipFrame, answered frame-by-frame so the rest of the envelope
// still runs. This is the distributed rip's input boundary and the
// FuzzRipRequestDecode target.
func ParseRipRequest(data []byte) (RipRequest, error) {
	var req RipRequest
	if err := json.Unmarshal(data, &req); err != nil {
		return RipRequest{}, fmt.Errorf("serveproto: rip request: %w", err)
	}
	if req.App == "" {
		return RipRequest{}, fmt.Errorf("serveproto: rip request: missing app")
	}
	if len(req.Frames) == 0 {
		return RipRequest{}, fmt.Errorf("serveproto: rip request: no frames")
	}
	if len(req.Frames) > MaxRipFrames {
		return RipRequest{}, fmt.Errorf("serveproto: rip request: %d frames exceeds limit %d", len(req.Frames), MaxRipFrames)
	}
	return req, nil
}

// ValidateRipFrame checks one frame's shape: a non-empty control id and a
// click path within MaxRipPath, every step non-empty.
func ValidateRipFrame(f RipFrame) error {
	if f.ID == "" {
		return fmt.Errorf("serveproto: rip frame: missing id")
	}
	if len(f.Path) > MaxRipPath {
		return fmt.Errorf("serveproto: rip frame %q: path length %d exceeds limit %d", f.ID, len(f.Path), MaxRipPath)
	}
	for i, step := range f.Path {
		if step == "" {
			return fmt.Errorf("serveproto: rip frame %q: empty path step %d", f.ID, i)
		}
	}
	return nil
}
