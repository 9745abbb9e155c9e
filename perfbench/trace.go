package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one cell, request,
// frame or application share a key; Parent is the id of the span that caused
// this one (0 for a root).
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Key    string        `json:"key,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so measured code calls it
// unconditionally.
type tracer struct {
	epoch time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span starting now and returns its id (0 when untraced).
func (t *tracer) begin(name, key string, parent int) int {
	return t.beginAt(name, key, parent, time.Now())
}

// beginAt opens a span with an explicit start, for intervals measured from a
// due time rather than from the call.
func (t *tracer) beginAt(name, key string, parent int, start time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Key: key, Start: start.Sub(t.epoch), End: -1})
	return id
}

// end closes span id now.
func (t *tracer) end(id int) { t.endAt(id, time.Now()) }

// endAt closes span id at an explicit time.
func (t *tracer) endAt(id int, at time.Time) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	t.spans[id-1].End = at.Sub(t.epoch)
	t.mu.Unlock()
}

// record adds a closed span covering [start, end].
func (t *tracer) record(name, key string, parent int, start, end time.Time) int {
	id := t.beginAt(name, key, parent, start)
	t.endAt(id, end)
	return id
}

// closed returns a copy of the closed spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations of every closed span named name.
func (t *tracer) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range t.closed() {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes maps each span id to its self time: its duration minus the part
// of its interval covered by its children. Children may overlap each other
// (concurrent cells under one pass), so the covered part is the length of
// the union of the children's intervals clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered is the length of the union of the kids' intervals within p.
func covered(p span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, p.Start), min(k.End, p.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo > cur.hi:
			total += cur.hi - cur.lo
			cur = v
		case v.hi > cur.hi:
			cur.hi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// layerSummary is one span name's totals over a run.
type layerSummary struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

// summarize folds spans by name, ordered by descending self time.
func summarize(spans []span) []layerSummary {
	self := selfTimes(spans)
	byName := make(map[string]*layerSummary)
	for _, s := range spans {
		ls := byName[s.Name]
		if ls == nil {
			ls = &layerSummary{name: s.Name}
			byName[s.Name] = ls
		}
		ls.count++
		ls.total += s.dur()
		ls.self += self[s.ID]
	}
	out := make([]layerSummary, 0, len(byName))
	//dmi:orderinvariant summaries are sorted below
	for _, ls := range byName {
		out = append(out, *ls)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSummary prints the per-span-name totals.
func writeSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-36s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, ls := range summarize(spans) {
		fmt.Fprintf(w, "  %-36s %8d %12.3f %12.3f\n", ls.name, ls.count, ms(ls.total), ms(ls.self))
	}
}

// writeSpans writes every closed span as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
