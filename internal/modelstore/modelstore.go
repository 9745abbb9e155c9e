// Package modelstore is the shared cache of offline artifacts (paper §3.2's
// offline phase). The rip→transform→identify pipeline is the dominant cost
// of the system — the paper budgets hours of automated modeling per
// application — while the resulting model is immutable and reusable across
// every session of that application. The store therefore memoizes the whole
// pipeline behind a key of application name + build-configuration
// fingerprint, with four properties:
//
//   - Concurrency-safe singleflight: N concurrent Build calls for the same
//     key trigger exactly one offline build; the rest block and share it.
//   - Versioned snapshots: a persistent store writes the ripped graph and
//     the model made of it to disk, and later runs read the model back
//     with zero rip clicks and without running the transform, describe or
//     the token count again. A snapshot is one .ungb file per rip
//     fingerprint: the graph's ung.EncodeBinary payload, prefixed by its
//     length as a uvarint, then a model section (appendModel) holding the
//     transform options it was made under, forest.Stats, CoreTokens, the
//     core rendering and the forest's shape (forest.AppendShape). A
//     restart under other transform options (a threshold sweep) reads the
//     graph alone and transforms it, leaving the file as it is. Any other
//     file in the directory is ignored, and a file that does not decode,
//     graph or model section, is a cache miss that gets rebuilt and
//     rewritten.
//   - Deterministic results: a rip is deterministic, and a distributed one
//     is byte-identical to the sequential one, so cached, snapshotted, and
//     fresh builds all yield the same identifier assignment.
//   - Bounded residency: a serving-tier store can cap the warm working set
//     with a byte budget (per-model cost = encoded snapshot size); the
//     least-recently-used warm entries are evicted beyond it, in-flight
//     builds are pinned, and Stats reports the traffic counters. Eviction
//     drops only the in-memory entry — snapshot files stay on disk, so a
//     persistent store reloads an evicted model with zero rip clicks.
package modelstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/appkit"
	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/ung"
)

// SnapshotVersion is bumped whenever the snapshot encoding or the pipeline
// semantics change; stale snapshots are ignored and rebuilt. A restart
// takes the forest, its stats, the core rendering and its token count from
// the file, so a change to what the transform, describe or the token
// estimate make of a graph needs a bump too. Version 2 added the model
// section; version 1 files held the graph alone.
const SnapshotVersion = 2

// Options configures one offline build. Workers is the width of the
// virtual schedule a rip's simulated clock is computed on (ung.RipParallel);
// it never affects the graph, so it is excluded from the fingerprint.
type Options struct {
	Rip       ung.Config
	Transform forest.Options
	Workers   int
	// NewExpander, when set, supplies the expansion engine for a rip — e.g.
	// a bench.RemoteExpander sharding frame expansions across serving
	// replicas — and the build runs ung.RipDispatched with it (Workers is
	// then ignored: the expander reports its own width). The expander seam
	// is byte-identical to the sequential rip by contract, so, like
	// Workers, the hook never affects the result and is excluded from the
	// fingerprint. Called once per cache miss; the store closes the
	// expander via RipDispatched.
	NewExpander func(app string) (ung.Expander, error)
}

// Fingerprint canonically identifies a build configuration for an
// application. Two builds with equal fingerprints yield identical models.
// Zero-valued knobs are normalized to the pipeline defaults first, so an
// explicit default and a zero value share one cache slot.
func Fingerprint(app string, opt Options) string {
	tf := opt.Transform.Normalized()
	return fmt.Sprintf("%s|clone=%d", RipFingerprint(app, opt.Rip), tf.CloneThreshold)
}

// RipFingerprint identifies the ripped graph alone — the graph depends only
// on the rip configuration, so disk snapshots are keyed by it and survive
// transform-threshold changes (a threshold sweep re-rips nothing).
func RipFingerprint(app string, cfg ung.Config) string {
	rip := cfg.Normalized()
	return fmt.Sprintf("%s|v%d|depth=%d|nodes=%d",
		app, SnapshotVersion, rip.MaxDepth, rip.MaxNodes)
}

// Build is the complete outcome of one store lookup.
type Build struct {
	Model          *describe.Model
	Graph          *ung.Graph
	RipStats       ung.Stats
	TransformStats forest.Stats
	// CacheHit: served from the in-memory cache (or joined an in-flight
	// build); no pipeline work was performed by this call.
	CacheHit bool
	// FromSnapshot: the build was loaded from a disk snapshot, with zero
	// rip clicks spent. When the snapshot's model section was written
	// under this build's transform options, the forest, TransformStats,
	// the core rendering and CoreTokens were read from it too; otherwise
	// transform and identify ran on the loaded graph.
	FromSnapshot bool
	// SnapshotErr records a failed snapshot save. The build itself
	// succeeded and is cached and returned — discarding a completed rip
	// because persistence failed would be strictly worse — but callers
	// that asked for persistence should surface this.
	SnapshotErr error
	// SnapshotBytes is the encoded size of the ripped graph — the build's
	// budget cost: the length of the graph's encoding at build time
	// (ung.EncodedSize in a store that writes no file), or of the
	// snapshot's graph payload at load time; the model section does not
	// count. It is computed for in-memory stores too, so Stats can always
	// report resident bytes. -1 means the encoding failed and the cost is
	// unknown; a budgeted store serves such a build without caching it.
	SnapshotBytes int64
	// CoreTokens is the LLM token cost of the model's core serialization —
	// an offline artifact like the model itself, computed once per build
	// and cached with the entry so warm session starts never re-serialize
	// the topology.
	CoreTokens int
}

// Stats counts store traffic and the warm working set. All counters are
// cumulative since construction; ResidentBytes/ResidentModels describe the
// current cache contents.
type Stats struct {
	// Hits counts lookups served from memory, including callers that
	// joined an in-flight build.
	Hits int64 `json:"hits"`
	// Misses counts lookups that had to start a build.
	Misses int64 `json:"misses"`
	// SnapshotLoads counts builds whose graph came from a disk snapshot
	// (zero rip clicks spent).
	SnapshotLoads int64 `json:"snapshot_loads"`
	// Evictions counts warm entries dropped to fit the budget.
	Evictions int64 `json:"evictions"`
	// ResidentBytes is the total snapshot cost of the cached builds.
	ResidentBytes int64 `json:"resident_bytes"`
	// ResidentModels is the number of cached completed builds.
	ResidentModels int `json:"resident_models"`
}

// Store memoizes offline builds. The zero value is not usable; construct
// with New, NewPersistent, or NewBudgeted.
type Store struct {
	dir string // "" = in-memory only

	mu      sync.Mutex
	entries map[string]*entry
	budget  int64  // max ResidentBytes; 0 = unlimited
	clock   uint64 // LRU clock, bumped on every lookup
	stats   Stats
}

// entry is one singleflight slot: the first caller builds, everyone else
// waits on ready.
type entry struct {
	ready chan struct{}
	build Build
	err   error
	// building pins the entry: an in-flight build is never evicted (its
	// cost is unknown and a waiter queue hangs off ready). A burst of
	// concurrent builds can therefore transiently overshoot the budget;
	// the overshoot is reclaimed as the builds complete.
	building bool
	cost     int64
	used     uint64 // LRU stamp: clock value of the last touch
}

// New creates an in-memory store.
func New() *Store { return &Store{entries: make(map[string]*entry)} }

// NewPersistent creates a store that additionally saves and reuses binary
// snapshots of each graph and its model under dir (created on first save).
func NewPersistent(dir string) *Store {
	s := New()
	s.dir = dir
	return s
}

// NewBudgeted creates a store whose warm entries hold at most budget bytes
// of encoded graph snapshots (0 = unlimited), LRU-evicting beyond that. A
// non-empty dir additionally persists snapshots, which makes eviction
// cheap to undo: a re-access rebuilds from disk with zero rip clicks.
func NewBudgeted(dir string, budget int64) *Store {
	s := New()
	s.dir = dir
	s.budget = budget
	return s
}

// Budget reports the configured resident-byte cap (0 = unlimited).
func (s *Store) Budget() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.budget
}

// Stats returns a snapshot of the traffic counters and resident set.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	for _, e := range s.entries {
		if !e.building {
			st.ResidentModels++
		}
	}
	return st
}

// Build returns the memoized build of the application — its topology model
// with full build provenance — running the offline pipeline on first use.
// The factory must return a fresh throwaway instance per call; it is
// invoked only on a cache miss (and once per rip worker).
func (s *Store) Build(app string, factory func() *appkit.App, opt Options) (Build, error) {
	key := Fingerprint(app, opt)

	s.mu.Lock()
	if e, ok := s.entries[key]; ok {
		s.stats.Hits++
		s.clock++
		e.used = s.clock
		s.mu.Unlock()
		<-e.ready
		if e.err != nil {
			return Build{}, e.err
		}
		b := e.build
		b.CacheHit = true
		return b, nil
	}
	s.stats.Misses++
	s.clock++
	e := &entry{ready: make(chan struct{}), building: true, used: s.clock}
	s.entries[key] = e
	s.mu.Unlock()

	e.build, e.err = s.build(app, factory, opt)

	s.mu.Lock()
	e.building = false
	e.cost = e.build.SnapshotBytes
	switch {
	case e.err != nil:
		// Failed builds are not cached: drop the slot so a later call can
		// retry.
		delete(s.entries, key)
	case s.budget > 0 && (e.cost < 0 || e.cost > s.budget):
		// The model alone exceeds the budget — or its cost is unknown
		// because the encoding failed, which must not become an invisible
		// resident: serve it to this call and its waiters, but keep
		// nothing resident.
		delete(s.entries, key)
	default:
		if e.cost < 0 {
			e.cost = 0 // unknown cost in an unbudgeted store
		}
		s.stats.ResidentBytes += e.cost
		s.evictLocked()
	}
	s.mu.Unlock()
	close(e.ready)
	return e.build, e.err
}

// evictLocked drops least-recently-used warm entries until the resident
// bytes fit the budget. In-flight builds are pinned and skipped; if only
// pinned entries remain the store stays transiently over budget.
func (s *Store) evictLocked() {
	if s.budget <= 0 {
		return
	}
	for s.stats.ResidentBytes > s.budget {
		victimKey := ""
		var victim *entry
		for k, e := range s.entries {
			if e.building {
				continue
			}
			if victim == nil || e.used < victim.used {
				victimKey, victim = k, e
			}
		}
		if victim == nil {
			return
		}
		delete(s.entries, victimKey)
		s.stats.ResidentBytes -= victim.cost
		s.stats.Evictions++
	}
}

// build runs the pipeline: snapshot load if available, else rip (dispatched
// to opt.NewExpander's engine when set, else sequential on one instance),
// then transform + identify, then snapshot save. A snapshot whose model
// section was written under opt.Transform yields the whole build, and
// nothing after the load runs.
func (s *Store) build(app string, factory func() *appkit.App, opt Options) (Build, error) {
	ripKey := RipFingerprint(app, opt.Rip)
	b, ok := s.loadSnapshot(ripKey, opt.Transform)
	if ok {
		s.mu.Lock()
		s.stats.SnapshotLoads++
		s.mu.Unlock()
		if b.Model != nil {
			return b, nil
		}
	} else {
		var err error
		if opt.NewExpander == nil {
			b.Graph, b.RipStats, err = ung.RipParallel(factory, opt.Rip, opt.Workers)
		} else {
			var ex ung.Expander
			if ex, err = opt.NewExpander(app); err == nil {
				b.Graph, b.RipStats, err = ung.RipDispatched(factory(), opt.Rip, ex)
			}
		}
		if err != nil {
			return Build{}, fmt.Errorf("modelstore: rip %s: %w", app, err)
		}
	}

	f, ts, err := forest.Transform(b.Graph, opt.Transform)
	if err != nil {
		return Build{}, fmt.Errorf("modelstore: transform %s: %w", app, err)
	}
	b.TransformStats = ts
	b.Model = describe.NewModel(f)
	b.CoreTokens = describe.Tokens(b.Model.Core())

	switch {
	case b.FromSnapshot:
		// The file's model section holds other transform options, which
		// are as valid as these: the file stays as it is.
	case s.dir == "":
		// Nothing is written, so only the size is needed.
		n, err := ung.EncodedSize(b.Graph)
		b.SnapshotBytes = int64(n)
		if err != nil {
			b.SnapshotBytes = -1 // cost unknown; a budget refuses to cache this
		}
	default:
		// Encode once: the encoding is the entry's budget cost, the
		// resident-bytes accounting, and the snapshot's graph payload.
		data, err := ung.EncodeBinary(b.Graph)
		if err != nil {
			b.SnapshotBytes = -1
			b.SnapshotErr = fmt.Errorf("modelstore: snapshot %s: %w", app, err)
			break
		}
		b.SnapshotBytes = int64(len(data))
		prefix := binary.AppendUvarint(nil, uint64(len(data)))
		if err := s.writeSnapshot(ripKey, prefix, data, appendModel(nil, opt.Transform, &b)); err != nil {
			b.SnapshotErr = fmt.Errorf("modelstore: snapshot %s: %w", app, err)
		}
	}
	return b, nil
}

// snapshotPath keeps one .ungb file per fingerprint; the fingerprint's
// separators are flattened into a safe file name.
func (s *Store) snapshotPath(key string) string {
	safe := make([]rune, 0, len(key))
	for _, r := range key {
		switch r {
		case '|', '=', '/', '\\', ' ':
			safe = append(safe, '-')
		default:
			safe = append(safe, r)
		}
	}
	return filepath.Join(s.dir, string(safe)+".ungb")
}

// loadSnapshot reads the snapshot for key and decodes its graph, and, when
// its model section was written under opt, the model: then the returned
// build's Model is set. A missing, corrupt or stale file, or a malformed
// model section, is a miss: the caller rebuilds and rewrites it.
func (s *Store) loadSnapshot(key string, opt forest.Options) (Build, bool) {
	if s.dir == "" {
		return Build{}, false
	}
	data, err := readString(s.snapshotPath(key))
	if err != nil {
		return Build{}, false
	}
	r := sectionReader{s: data}
	n := r.uvarint(uint64(len(data)))
	if r.bad || n > uint64(len(data)-r.off) {
		return Build{}, false
	}
	end := r.off + int(n)
	g, err := ung.DecodeBinaryString(data[r.off:end])
	if err != nil {
		return Build{}, false
	}
	b := Build{Graph: g, FromSnapshot: true, SnapshotBytes: int64(n)}
	if err := readModel(&b, data[end:], opt); err != nil {
		return Build{}, false
	}
	return b, true
}

// appendModel appends the model section of b, built under opt, to buf:
//
//	cloneThreshold | stats | coreTokens | core | forest shape
//
// cloneThreshold is opt's after Normalized; stats are b.TransformStats'
// ten fields in declaration order; core is length-prefixed; the shape is
// forest.AppendShape's and runs to the end of the file. All integers are
// unsigned varints.
func appendModel(buf []byte, opt forest.Options, b *Build) []byte {
	buf = binary.AppendUvarint(buf, uint64(opt.Normalized().CloneThreshold))
	ts := b.TransformStats
	for _, p := range statFields(&ts) {
		buf = binary.AppendUvarint(buf, uint64(*p))
	}
	buf = binary.AppendUvarint(buf, uint64(ts.NaiveTreeNodes))
	buf = binary.AppendUvarint(buf, uint64(b.CoreTokens))
	core := b.Model.Core()
	buf = binary.AppendUvarint(buf, uint64(len(core)))
	buf = append(buf, core...)
	return forest.AppendShape(buf, b.Model.Forest)
}

// statFields lists the int fields of st in declaration order; the int64
// NaiveTreeNodes follows them in a model section.
func statFields(st *forest.Stats) [9]*int {
	return [...]*int{&st.GraphNodes, &st.GraphEdges, &st.BackEdgesRemoved, &st.MergeNodes,
		&st.Externalized, &st.Cloned, &st.ForestNodes, &st.SharedSubtrees, &st.MainTreeNodes}
}

// readModel decodes the model section of b's snapshot file. A section
// written under other options than opt leaves b's model unset. A section
// is trusted to hold what the transform, describe and the token count made
// of the graph, as the graph is trusted to be the rip, and checked as
// strictly: forest.DecodeShape checks the shape, and the stats must agree
// with the graph and the forest wherever they can be checked without
// running the transform.
func readModel(b *Build, section string, opt forest.Options) error {
	r := sectionReader{s: section}
	th := r.uvarint(math.MaxInt64)
	if r.bad {
		return errMalformed
	}
	if th != uint64(opt.Normalized().CloneThreshold) {
		return nil
	}
	var ts forest.Stats
	for _, p := range statFields(&ts) {
		*p = int(r.uvarint(math.MaxInt32))
	}
	ts.NaiveTreeNodes = int64(r.uvarint(math.MaxInt64))
	tokens := int(r.uvarint(math.MaxInt32))
	n := r.uvarint(uint64(len(section)))
	if r.bad || n > uint64(len(section)-r.off) {
		return errMalformed
	}
	core := section[r.off : r.off+int(n)]
	f, err := forest.DecodeShape(b.Graph, section[r.off+int(n):])
	if err != nil {
		return err
	}
	m := describe.Restore(f, core)
	main := m.NodeCount()
	if len(f.SharedOrder) > 0 {
		main = f.Shared[f.SharedOrder[0]].Pos()
	}
	if ts.GraphNodes != len(b.Graph.Nodes) || ts.GraphEdges != b.Graph.EdgeCount() ||
		ts.ForestNodes != m.NodeCount() || ts.MainTreeNodes != main ||
		ts.SharedSubtrees != len(f.SharedOrder) || ts.Externalized != ts.SharedSubtrees ||
		ts.MergeNodes != ts.Externalized+ts.Cloned {
		return fmt.Errorf("modelstore: model section: stats %+v disagree with the graph or forest", ts)
	}
	b.Model, b.TransformStats, b.CoreTokens = m, ts, tokens
	return nil
}

var errMalformed = errors.New("modelstore: model section: malformed")

// sectionReader reads unsigned varints from a snapshot file; the first
// malformed one, or one above its limit, sets bad for good.
type sectionReader struct {
	s   string
	off int
	bad bool
}

func (r *sectionReader) uvarint(limit uint64) uint64 {
	var v uint64
	for shift := uint(0); r.off < len(r.s) && shift < 64; shift += 7 {
		c := r.s[r.off]
		r.off++
		if shift == 63 && c > 1 {
			break // overflow
		}
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			if v > limit {
				break
			}
			return v
		}
	}
	r.bad = true
	return 0
}

// readString reads the file at path into a string grown to the file's
// size. The decoded graph's strings are substrings of it, so a restart
// holds each payload once, with no byte slice beside it. The chunks pass
// through an array on the stack: io.Copy would allocate a fresh 32 KB
// buffer for every file.
func readString(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.Grow(int(fi.Size()))
	var chunk [32 << 10]byte
	for {
		n, err := f.Read(chunk[:])
		b.Write(chunk[:n])
		if err == io.EOF {
			return b.String(), nil
		}
		if err != nil {
			return "", err
		}
	}
}

// writeSnapshot publishes a snapshot crash-safely: the parts, in order, go
// to a uniquely named temp file in the snapshot directory, which is synced,
// closed and then renamed over the final name. Writers sharing a directory
// (two daemons building the same app) never share a temp file, and a crash
// mid-write leaves at worst a stray temp file, never a torn snapshot. The
// temp file is removed on any error.
func (s *Store) writeSnapshot(key string, parts ...[]byte) (err error) {
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return err
	}
	path := s.snapshotPath(key)
	f, err := os.CreateTemp(s.dir, filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err = f.Chmod(0o644); err != nil {
		return err
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			return err
		}
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
}
