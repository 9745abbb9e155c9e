// Package ung builds and represents the UI Navigation Graph (UNG): the
// directed graph whose nodes are UI controls and whose edges capture
// click-induced reachability (paper §3.2). The graph is produced offline by
// a DFS GUI ripper with differential capture (paper §4.1) and consumed by
// the forest transformation (internal/forest).
package ung

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/uia"
)

// RootID is the identifier of the virtual root node that anchors controls
// visible on the initial screen.
const RootID = "[ROOT]"

// Node is one control in the UNG.
type Node struct {
	ID   string // synthesized control identifier (paper §4.1)
	Name string
	Type uia.ControlType
	Desc string

	// LargeEnum marks controls inside large enumerations (font lists,
	// symbol grids); core-topology extraction prunes them.
	LargeEnum bool
	// Context is the application context under which the control was
	// discovered ("" for the base context).
	Context string
}

// Graph is the UI Navigation Graph in its one form: the nodes in discovery
// order, the virtual root at index 0, and every edge an index into Nodes.
// A synthesized id spells out its whole ancestor path, so an edge names
// its node by position and no consumer hashes an id to follow it. A node's
// edges are read with Out and In, once the graph is sealed. NewGraph starts
// a graph that AddNode and AddEdge build and Seal packs; DecodeBinary and a
// rip return sealed graphs.
type Graph struct {
	App   string
	Nodes []Node

	// edges holds every edge list in one buffer, the rows of a sparse
	// matrix in the order EncodeBinary writes them: node i's out list is
	// edges[off[2i]:off[2i+1]] and its in list edges[off[2i+1]:off[2i+2]],
	// so off has 2N+1 entries. AddEdge on a sealed graph inserts into it
	// in place.
	edges []int32
	off   []int32
	// A graph being built logs its edges instead, in insertion order, with
	// no buffer to shift and no per-node list to grow; Seal packs the log
	// into the buffer, and no list is read while there is one. lastIn
	// chains the log by target for AddEdge's duplicate check: 1 + the log
	// position of the last edge into each node (0 for none), each logged
	// edge naming the one before it. A graph logs exactly when lastIn is
	// not nil.
	added  []loggedEdge
	lastIn []int32

	// index finds a node's position in Nodes by id. ids builds it the
	// first time AddNode or lookup needs it, AddNode keeps it, and a rip
	// drops it when it finishes, so a model's graph (ripped or decoded)
	// carries none. Ids are unique because nothing else adds a node.
	index idSet
}

// loggedEdge is one edge in a graph's log: from → to, and 1 + the log
// position of the edge logged before it into to (0 for none).
type loggedEdge struct{ from, to, prevIn int32 }

// Out returns the click targets revealed by node i, in discovery order.
// The slice is capped at its length; the caller must not modify it.
func (g *Graph) Out(i int32) []int32 { return g.row(2 * i) }

// In returns node i's reverse edges, in insertion order. The slice is
// capped at its length; the caller must not modify it.
func (g *Graph) In(i int32) []int32 { return g.row(2*i + 1) }

// row returns edge list k of the buffer, capped at its length.
func (g *Graph) row(k int32) []int32 {
	if g.lastIn != nil {
		panic("ung: edges read from a graph that is not sealed")
	}
	return g.edges[g.off[k]:g.off[k+1]:g.off[k+1]]
}

// NewGraph starts a graph containing only the virtual root. It logs the
// edges AddEdge adds until Seal packs them.
func NewGraph(app string) *Graph {
	g := &Graph{App: app, lastIn: []int32{}} // not nil: the graph logs
	g.AddNode(Reveal{ID: RootID, Name: app, Type: uia.WindowControl}, "")
	return g
}

// grow returns s with room for n more elements. It doubles the capacity
// when it must grow: append grows a long slice by a quarter at a time,
// which would copy it several times over a rip.
func grow[S ~[]E, E any](s S, n int) S {
	if len(s)+n <= cap(s) {
		return s
	}
	return append(make(S, 0, max(2*cap(s), len(s)+n, 64)), s...)
}

// ids returns the id index, building it from Nodes if the graph has none,
// at most a quarter full.
func (g *Graph) ids() idSet {
	if g.index == nil {
		g.index = newIDSet(2 * len(g.Nodes))
		for i := range g.Nodes {
			g.index.add(g.Nodes, int32(i))
		}
	}
	return g.index
}

// AddNode returns the index of the node with r's id, creating it from the
// reveal under context on first use; added reports whether it did. r's
// Parent is not read: the edge from the parent is AddEdge's.
func (g *Graph) AddNode(r Reveal, context string) (i int32, added bool) {
	index := g.ids()
	h := index.slot(g.Nodes, r.ID)
	if j := index[h]; j != 0 {
		return j - 1, false
	}
	i = int32(len(g.Nodes))
	g.Nodes = append(grow(g.Nodes, 1), Node{
		ID:        r.ID,
		Name:      r.Name,
		Type:      r.Type,
		Desc:      r.Desc,
		LargeEnum: r.LargeEnum,
		Context:   context,
	})
	if g.lastIn != nil {
		g.lastIn = append(grow(g.lastIn, 1), 0)
	} else {
		// The new node's lists are empty, at the end of the buffer.
		end := g.off[len(g.off)-1]
		g.off = append(grow(g.off, 2), end, end)
	}
	if 2*len(g.Nodes) > len(index) {
		g.index = nil // rebuilt, with the new node, at twice the size
		g.ids()
	} else {
		index[h] = i + 1
	}
	return i, true
}

// lookup returns the index of the node with the given id, or -1.
func (g *Graph) lookup(id string) int32 {
	index := g.ids()
	return index[index.slot(g.Nodes, id)] - 1
}

// AddEdge adds the edge from → to once, at the end of from's out list and
// of to's in list; duplicates, and an endpoint that is no node, are
// ignored.
func (g *Graph) AddEdge(from, to int32) {
	if from < 0 || to < 0 || int(from) >= len(g.Nodes) || int(to) >= len(g.Nodes) {
		return
	}
	if g.lastIn != nil {
		for k := g.lastIn[to]; k != 0; k = g.added[k-1].prevIn {
			if g.added[k-1].from == from {
				return
			}
		}
		g.added = append(grow(g.added, 1), loggedEdge{from, to, g.lastIn[to]})
		g.lastIn[to] = int32(len(g.added))
		return
	}
	// An edge is in from's out list exactly when it is in to's in list,
	// so the duplicate check scans the shorter of the two.
	out, in := g.Out(from), g.In(to)
	if len(out) <= len(in) && slices.Contains(out, to) || len(out) > len(in) && slices.Contains(in, from) {
		return
	}
	g.insert(2*from, to)
	g.insert(2*to+1, from)
}

// insert appends e to edge list k, shifting every later list.
func (g *Graph) insert(k, e int32) {
	g.edges = slices.Insert(g.edges, int(g.off[k+1]), e)
	for j := k + 1; j < int32(len(g.off)); j++ {
		g.off[j]++
	}
}

// Seal leaves a graph as a model keeps it: the edge log packed into the
// buffer, each list in insertion order, no id index, and the node slab
// trimmed to its length. A sealed graph stays sealed: Seal does nothing on
// it, and AddEdge on it inserts in place.
func (g *Graph) Seal() {
	if g.lastIn == nil {
		return
	}
	// Count each list's edges at the offset after it; the running sum
	// makes off[k] where list k starts.
	off := make([]int32, 2*len(g.Nodes)+1)
	for _, e := range g.added {
		off[2*e.from+1]++
		off[2*e.to+2]++
	}
	for k := 1; k < len(off); k++ {
		off[k] += off[k-1]
	}
	edges := make([]int32, off[len(off)-1])
	next := slices.Clone(off[:len(off)-1]) // where each list's next edge goes
	for _, e := range g.added {
		edges[next[2*e.from]] = e.to
		next[2*e.from]++
		edges[next[2*e.to+1]] = e.from
		next[2*e.to+1]++
	}
	g.edges, g.off, g.added, g.lastIn, g.index = edges, off, nil, nil, nil
	if cap(g.Nodes) > len(g.Nodes) {
		nodes := make([]Node, len(g.Nodes))
		copy(nodes, g.Nodes)
		g.Nodes = nodes
	}
}

// NodeCount returns the number of nodes including the virtual root.
func (g *Graph) NodeCount() int { return len(g.Nodes) }

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for i := range int32(len(g.Nodes)) {
		n += len(g.Out(i))
	}
	return n
}

// MergeNodes returns the IDs of nodes with more than one incoming edge.
func (g *Graph) MergeNodes() []string {
	var out []string
	for i := range int32(len(g.Nodes)) {
		if len(g.In(i)) > 1 {
			out = append(out, g.Nodes[i].ID)
		}
	}
	return out
}

// MaxDepth returns the length of the longest simple path from the root
// following BFS layering (a lower bound on true navigation depth, adequate
// for reporting).
func (g *Graph) MaxDepth() int {
	if len(g.Nodes) == 0 {
		return 0
	}
	depth := make([]int, len(g.Nodes))
	seen := make([]bool, len(g.Nodes))
	seen[0] = true
	queue := []int32{0}
	max := 0
	for head := 0; head < len(queue); head++ {
		cur := queue[head]
		for _, next := range g.Out(cur) {
			if seen[next] {
				continue
			}
			seen[next] = true
			depth[next] = depth[cur] + 1
			if depth[next] > max {
				max = depth[next]
			}
			queue = append(queue, next)
		}
	}
	return max
}

// Validate checks the structural invariants, nodes in discovery order:
// every out edge names a node and has its reverse entry, and every node is
// reachable from the root (index 0; a graph that does not start at the
// root reaches nothing). DecodeBinary runs it on every snapshot, so the
// same broken graph fails with the same error whether built or decoded.
func (g *Graph) Validate() error {
	for i := range int32(len(g.Nodes)) {
		for _, t := range g.Out(i) {
			if t < 0 || int(t) >= len(g.Nodes) {
				return fmt.Errorf("ung: edge %q → node index %d out of range (%d nodes)", g.Nodes[i].ID, t, len(g.Nodes))
			}
			if !slices.Contains(g.In(t), i) {
				return fmt.Errorf("ung: edge %q → %q missing reverse entry", g.Nodes[i].ID, g.Nodes[t].ID)
			}
		}
	}
	seen := make([]bool, len(g.Nodes))
	queue := make([]int32, 0, len(g.Nodes))
	if len(g.Nodes) > 0 && g.Nodes[0].ID == RootID {
		seen[0] = true
		queue = append(queue, 0)
	}
	for head := 0; head < len(queue); head++ {
		for _, t := range g.Out(queue[head]) {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	if len(queue) != len(g.Nodes) {
		var missing []string
		for i, ok := range seen {
			if !ok {
				missing = append(missing, g.Nodes[i].ID)
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("ung: %d nodes unreachable from root (first: %.3q)", len(missing), missing)
	}
	return nil
}
