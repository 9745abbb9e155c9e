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

	Out []int32 // click targets revealed by this control, in discovery order
	In  []int32 // reverse edges, in insertion order
}

// Graph is the UI Navigation Graph in its one form: the nodes in discovery
// order, the virtual root at index 0, and every edge an index into Nodes.
// A synthesized id spells out its whole ancestor path, so an edge names
// its node by position and no consumer hashes an id to follow it. A graph
// comes from NewGraph or DecodeBinary.
type Graph struct {
	App   string
	Nodes []Node
	// index maps a node id to its position in Nodes. ids builds it the
	// first time AddNode or lookup needs it, AddNode keeps it, and a rip
	// drops it when it finishes, so a model's graph (ripped or decoded)
	// carries none. Ids are unique because nothing else adds a node.
	index map[string]int32
}

// NewGraph creates a graph containing only the virtual root.
func NewGraph(app string) *Graph {
	g := &Graph{App: app}
	g.AddNode(Reveal{ID: RootID, Name: app, Type: uia.WindowControl}, "")
	return g
}

// ids returns the id index, building it from Nodes if the graph has none.
func (g *Graph) ids() map[string]int32 {
	if g.index == nil {
		g.index = make(map[string]int32, len(g.Nodes))
		for i := range g.Nodes {
			g.index[g.Nodes[i].ID] = int32(i)
		}
	}
	return g.index
}

// AddNode returns the index of the node with r's id, creating it from the
// reveal under context on first use; added reports whether it did. r's
// Parent is not read: the edge from the parent is AddEdge's.
func (g *Graph) AddNode(r Reveal, context string) (i int32, added bool) {
	index := g.ids()
	if i, ok := index[r.ID]; ok {
		return i, false
	}
	i = int32(len(g.Nodes))
	if len(g.Nodes) == cap(g.Nodes) {
		// Double: append grows a long slice by a quarter at a time, which
		// would copy every node several times over a rip.
		nodes := make([]Node, len(g.Nodes), max(2*len(g.Nodes), 64))
		copy(nodes, g.Nodes)
		g.Nodes = nodes
	}
	g.Nodes = append(g.Nodes, Node{
		ID:        r.ID,
		Name:      r.Name,
		Type:      r.Type,
		Desc:      r.Desc,
		LargeEnum: r.LargeEnum,
		Context:   context,
	})
	index[r.ID] = i
	return i, true
}

// lookup returns the index of the node with the given id, or -1.
func (g *Graph) lookup(id string) int32 {
	if i, ok := g.ids()[id]; ok {
		return i
	}
	return -1
}

// AddEdge inserts the edge from → to once; duplicates, and an endpoint that
// is no node, are ignored. An edge is in from's Out exactly when it is in
// to's In, so the duplicate check scans the shorter of the two.
func (g *Graph) AddEdge(from, to int32) {
	if from < 0 || to < 0 || int(from) >= len(g.Nodes) || int(to) >= len(g.Nodes) {
		return
	}
	f, t := &g.Nodes[from], &g.Nodes[to]
	if len(f.Out) <= len(t.In) && slices.Contains(f.Out, to) ||
		len(f.Out) > len(t.In) && slices.Contains(t.In, from) {
		return
	}
	f.Out = append(f.Out, to)
	t.In = append(t.In, from)
}

// packEdges moves every node's Out and In into one buffer, each list a
// window capped at its length, the shape DecodeBinaryString gives them:
// a finished rip's graph then holds one edge array instead of one or two
// append-grown slices per node. An AddEdge after it reallocates only the
// lists it grows.
func (g *Graph) packEdges() {
	buf := make([]int32, 0, 2*g.EdgeCount())
	carve := func(l []int32) []int32 {
		if len(l) == 0 {
			return nil
		}
		start := len(buf)
		buf = append(buf, l...)
		return buf[start:len(buf):len(buf)]
	}
	for i := range g.Nodes {
		n := &g.Nodes[i]
		n.Out, n.In = carve(n.Out), carve(n.In)
	}
}

// NodeCount returns the number of nodes including the virtual root.
func (g *Graph) NodeCount() int { return len(g.Nodes) }

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for i := range g.Nodes {
		n += len(g.Nodes[i].Out)
	}
	return n
}

// MergeNodes returns the IDs of nodes with more than one incoming edge.
func (g *Graph) MergeNodes() []string {
	var out []string
	for i := range g.Nodes {
		if n := &g.Nodes[i]; len(n.In) > 1 {
			out = append(out, n.ID)
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
		for _, next := range g.Nodes[cur].Out {
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
	for i := range g.Nodes {
		n := &g.Nodes[i]
		for _, t := range n.Out {
			if t < 0 || int(t) >= len(g.Nodes) {
				return fmt.Errorf("ung: edge %q → node index %d out of range (%d nodes)", n.ID, t, len(g.Nodes))
			}
			if !slices.Contains(g.Nodes[t].In, int32(i)) {
				return fmt.Errorf("ung: edge %q → %q missing reverse entry", n.ID, g.Nodes[t].ID)
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
		for _, t := range g.Nodes[queue[head]].Out {
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
