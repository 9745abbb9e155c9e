// Package serveproto is the wire protocol of the distributed serving tier:
// the route paths and the request/response types the dmi-serve daemon
// answers, shared with the bench.RemoteDispatcher that shards grid cells
// across replicas and with the dmi-coord coordinator that scrapes replica
// stats. Promoting the types out of cmd/dmi-serve is what keeps the daemon
// and its clients from drifting: both sides compile against the same
// structs and path constants, so a rename is a build break, not a silent
// protocol skew.
//
// The protocol is deliberately tiny. Cells travel in one envelope, POST
// /v1/cells, whether a client sends one or many: a single cell is a batch
// of one. Each cell names one evaluation grid cell — the task (which
// implies the app), the matrix setting by its Table 3 label, and the
// repetition count — and its result carries the cell's outcomes. Sessions are stateless, pure functions of
// (model, task, setting, run): the RNG stream is derived from those
// coordinates alone, so replaying a request on any replica yields the same
// bytes. That idempotency is the entire failure-handling story — a
// coordinator may re-dispatch a failed cell to another replica without
// deduplication, fencing, or sequencing.
package serveproto

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/agent"
	"repro/internal/modelstore"
)

// Route paths of the v1 surface, the only one the daemon serves.
const (
	PathCells   = "/v1/cells"   // POST: BatchRequest → BatchResponse
	PathRip     = "/v1/rip"     // POST: RipRequest → RipResponse
	PathStats   = "/v1/stats"   // GET: StatsResponse
	PathHealthz = "/v1/healthz" // GET: Health
)

// MaxRuns bounds one request's repetitions so a typo cannot park a worker
// pool on a single cell indefinitely.
const MaxRuns = 100

// MaxRequestBytes is the body cap of one cell's worth of request: a cell is
// a few short strings, so daemons refuse to buffer more per declared cell
// and answer 413 (see BatchRequestBytes).
const MaxRequestBytes = 1 << 16

// MaxBatchCells bounds one POST /v1/cells request. The in-repo coordinator
// sends one cell per envelope; the cap keeps a multi-cell request from any
// other client from pinning a replica's worker pool for an unbounded
// stretch.
const MaxBatchCells = 64

// BatchRequestBytes is the body cap for a POST /v1/cells declaring n cells:
// the per-cell cap scaled by the declared batch size (clamped to
// [1, MaxBatchCells]). Scaling by the declared size instead of capping flat
// is what lets a full batch of maximum-size cell requests through while
// still bounding what a replica will buffer. Clients declare n in the
// BatchSizeHeader; a missing or malformed declaration gets the single-cell
// cap.
func BatchRequestBytes(n int) int64 {
	if n < 1 {
		n = 1
	}
	if n > MaxBatchCells {
		n = MaxBatchCells
	}
	return int64(n) * MaxRequestBytes
}

// BatchSizeHeader declares a batch request's cell count ahead of the body,
// so the daemon can size its MaxBytesReader before reading a byte.
const BatchSizeHeader = "Dmi-Batch-Cells"

// SessionRequest selects one grid cell inside a BatchRequest. App is
// optional; when set it must match the task's application (a cheap
// cross-check that the caller and the replica agree on the catalog). The
// pack handshake is the envelope's (BatchRequest.Pack/PackHash), and the
// in-repo dispatcher leaves the per-cell Pack and PackHash empty; they stay
// because the envelope is outside input, and a hand-written cell naming a
// different pack must get its own 409 rather than run against different
// task content.
type SessionRequest struct {
	App      string `json:"app"`
	Task     string `json:"task"`
	Setting  string `json:"setting"`
	Runs     int    `json:"runs"`
	Pack     string `json:"pack,omitempty"`
	PackHash string `json:"pack_hash,omitempty"`
}

// SessionResponse echoes the resolved cell and carries its outcomes in run
// order — exactly the slice the in-process bench.Run produces for the same
// cell. Pack and PackHash identify the pack the replica served the cell
// from.
type SessionResponse struct {
	App      string          `json:"app"`
	Task     string          `json:"task"`
	Setting  string          `json:"setting"`
	Runs     int             `json:"runs"`
	Pack     string          `json:"pack,omitempty"`
	PackHash string          `json:"pack_hash,omitempty"`
	Outcomes []agent.Outcome `json:"outcomes"`
}

// RawSessionResponse is SessionResponse with the outcomes left as raw
// bytes: the view byte-equivalence tests decode into, so a daemon's exact
// outcome encoding can be compared against a reference without a
// decode/re-encode round trip hiding a drift. It must mirror
// SessionResponse field for field (asserted by TestRawSessionResponseMirror).
type RawSessionResponse struct {
	App      string          `json:"app"`
	Task     string          `json:"task"`
	Setting  string          `json:"setting"`
	Runs     int             `json:"runs"`
	Pack     string          `json:"pack,omitempty"`
	PackHash string          `json:"pack_hash,omitempty"`
	Outcomes json.RawMessage `json:"outcomes"`
}

// BatchRequest is POST /v1/cells: 1..MaxBatchCells cells in one HTTP call
// (the in-repo coordinator sends exactly one). Pack and PackHash optionally name
// the task pack the caller resolves cells against (see internal/taskpack);
// a replica serving a different pack rejects the whole envelope with 409
// and a PackMismatch body instead of running cells against different task
// content. The handshake is request-level because a coordinator never
// mixes packs within a run; empty values skip it.
type BatchRequest struct {
	Pack     string           `json:"pack,omitempty"`
	PackHash string           `json:"pack_hash,omitempty"`
	Cells    []SessionRequest `json:"cells"`
}

// DecodeBatchRequest reads a POST /v1/cells body — the first JSON value r
// yields — and checks the envelope: 1..MaxBatchCells cells. The cells
// themselves are not validated here; each is checked on its own when it
// runs. An error reading r, such as the *http.MaxBytesError of a body over
// its cap, stays reachable through errors.As.
func DecodeBatchRequest(r io.Reader) (BatchRequest, error) {
	var req BatchRequest
	if err := json.NewDecoder(r).Decode(&req); err != nil {
		return BatchRequest{}, fmt.Errorf("bad request body: %w", err)
	}
	if len(req.Cells) == 0 {
		return BatchRequest{}, errors.New("batch has no cells")
	}
	if len(req.Cells) > MaxBatchCells {
		return BatchRequest{}, fmt.Errorf("batch of %d cells exceeds the %d cap", len(req.Cells), MaxBatchCells)
	}
	return req, nil
}

// BatchCellResult is one cell's outcome within a batch response. Cells fail
// independently: Status carries the cell's own HTTP-style verdict (200,
// 400, 404, 409, 500, ...), with Error naming the rejection, so one bad
// cell does not poison its batch-mates.
type BatchCellResult struct {
	Status   int              `json:"status"`
	Error    string           `json:"error,omitempty"`
	Response *SessionResponse `json:"response,omitempty"`
}

// BatchResponse answers POST /v1/cells with one result per requested cell,
// in request order. Pack and PackHash identify the pack the replica served
// the batch from.
type BatchResponse struct {
	Pack     string            `json:"pack,omitempty"`
	PackHash string            `json:"pack_hash,omitempty"`
	Results  []BatchCellResult `json:"results"`
}

// RawBatchResponse is BatchResponse with the results left as raw bytes, for
// byte-equivalence tests over the batch surface. It must mirror
// BatchResponse field for field (asserted by TestRawBatchResponseMirror and
// the wiredrift analyzer's raw-mirror check).
type RawBatchResponse struct {
	Pack     string          `json:"pack,omitempty"`
	PackHash string          `json:"pack_hash,omitempty"`
	Results  json.RawMessage `json:"results"`
}

// RawBatchCellResult is BatchCellResult with the response left as raw
// bytes, the second hop of a batch byte-equivalence decode (RawBatchResponse
// holds the result array, this holds one cell's response). Mirror-pinned to
// BatchCellResult like the other raw views.
type RawBatchCellResult struct {
	Status   int             `json:"status"`
	Error    string          `json:"error,omitempty"`
	Response json.RawMessage `json:"response,omitempty"`
}

// PackMismatch is the body of a 409 envelope rejection: the replica is
// healthy but serves a different task pack than the request names. Want is
// the requester's pack, Have is the replica's.
type PackMismatch struct {
	WantPack string `json:"want_pack"`
	WantHash string `json:"want_hash"`
	HavePack string `json:"have_pack"`
	HaveHash string `json:"have_hash"`
}

// StatsResponse is GET /v1/stats: serving totals plus the model store's
// warm-serving counters. Sessions counts cells served, Runs the outcomes
// returned across them, InFlight the cells executing now.
type StatsResponse struct {
	Sessions int64 `json:"sessions"`
	Runs     int64 `json:"runs"`
	InFlight int64 `json:"in_flight"`
	// Expansions counts frames expanded for POST /v1/rip — the replica-side
	// ledger of distributed-rip work (omitted when the replica has done
	// none, which keeps pre-rip consumers byte-stable).
	Expansions   int64            `json:"expansions,omitempty"`
	Store        modelstore.Stats `json:"store"`
	WarmHitRatio float64          `json:"warm_hit_ratio"`
	BudgetBytes  int64            `json:"budget_bytes"`
	CoreTokens   map[string]int   `json:"core_tokens"`
}

// Health is GET /v1/healthz: readiness, the catalog size the replica
// prewarmed, and the identity of the task pack it serves — so a coordinator
// can refuse to start a run against mismatched replicas before dispatching
// anything.
type Health struct {
	OK       bool   `json:"ok"`
	Apps     int    `json:"apps"`
	Pack     string `json:"pack,omitempty"`
	PackHash string `json:"pack_hash,omitempty"`
	// Instance identifies this daemon process (a random id drawn at
	// startup), so a health prober can tell a replica that blipped from one
	// that was killed and restarted — the instance changes on restart.
	Instance string `json:"instance,omitempty"`
}

// HitRatio is the fraction of store lookups served without a build.
func HitRatio(st modelstore.Stats) float64 {
	if st.Hits+st.Misses == 0 {
		return 0
	}
	return float64(st.Hits) / float64(st.Hits+st.Misses)
}
