// Package serveproto is the wire protocol of the distributed serving tier:
// the route paths and the request/response types the dmi-serve daemon
// answers, shared with the bench.RemoteDispatcher that shards grid cells
// across replicas and with the dmi-coord coordinator that scrapes replica
// stats. Promoting the types out of cmd/dmi-serve is what keeps the daemon
// and its clients from drifting: both sides compile against the same
// structs and path constants, so a rename is a build break, not a silent
// protocol skew.
//
// The protocol is deliberately tiny. One POST /v1/cells carries one cell:
// the task (which implies the app), the matrix setting by its Table 3
// label, and the repetition count. A 200 carries the cell's outcomes; every
// failure is the HTTP status itself (400, 404, 413, 5xx, or a 409 with a
// PackMismatch body). Sessions are stateless, pure functions of
// (model, task, setting, run): the RNG stream is derived from those
// coordinates alone, and the application instance a session clicks is
// either fresh or a pooled one reset so that nothing from its earlier
// sessions can alter an outcome (osworld.Task.Checkout, DESIGN.md §3.1),
// so replaying a request on any replica yields the same bytes. That
// idempotency is the entire failure-handling story — a coordinator may
// re-dispatch a failed cell to another replica without deduplication,
// fencing, or sequencing.
package serveproto

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/agent"
	"repro/internal/modelstore"
)

// Route paths of the v1 surface, the only one the daemon serves.
const (
	PathCells   = "/v1/cells"   // POST: SessionRequest → SessionResponse
	PathRip     = "/v1/rip"     // POST: RipRequest → RipResponse
	PathStats   = "/v1/stats"   // GET: StatsResponse
	PathHealthz = "/v1/healthz" // GET: Health
)

// MaxRuns bounds one request's repetitions so a typo cannot park a worker
// pool on a single cell indefinitely.
const MaxRuns = 100

// MaxRequestBytes is the body cap of POST /v1/cells: a cell is a few short
// strings, so daemons refuse to buffer more and answer 413.
const MaxRequestBytes = 1 << 16

// SessionRequest is POST /v1/cells: one evaluation grid cell. App is
// optional; when set it must match the task's application (a cheap
// cross-check that the caller and the replica agree on the catalog). Pack
// and PackHash optionally name the task pack the caller resolves cells
// against (see internal/taskpack); a replica serving a different pack
// refuses the request with 409 and a PackMismatch body instead of running
// it against different task content. Empty values skip the handshake.
type SessionRequest struct {
	App      string `json:"app"`
	Task     string `json:"task"`
	Setting  string `json:"setting"`
	Runs     int    `json:"runs"`
	Pack     string `json:"pack,omitempty"`
	PackHash string `json:"pack_hash,omitempty"`
}

// DecodeSessionRequest reads a POST /v1/cells body — the first JSON value r
// yields — into one SessionRequest. Unknown fields are refused, so a body of
// another shape (a {"cells":[...]} envelope, a misspelt key) is a 400 that
// names the field instead of an empty cell. The cell itself is not validated
// here; the daemon resolves it when it runs. An error reading r, such as the
// *http.MaxBytesError of a body over its cap, stays reachable through
// errors.As.
func DecodeSessionRequest(r io.Reader) (SessionRequest, error) {
	var req SessionRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return SessionRequest{}, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

// SessionResponse is the 200 answer to POST /v1/cells: it echoes the
// resolved cell and carries its outcomes in run order — exactly the slice
// the in-process bench.Run produces for the same cell. Pack and PackHash
// identify the pack the replica served the cell from.
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

// PackMismatch is the body of a 409 request rejection: the replica is
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
	Expansions int64 `json:"expansions,omitempty"`
	// EnvsReused and EnvsBuilt count the sessions whose application
	// instance came from the process's instance pool, reset for the task,
	// and those that had to build one (osworld.PoolStats).
	EnvsReused   int64            `json:"envs_reused"`
	EnvsBuilt    int64            `json:"envs_built"`
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
