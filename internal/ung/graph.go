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

	Out []string // click targets revealed by this control, in discovery order
	In  []string // reverse edges, in insertion order
}

// Graph is the UI Navigation Graph.
type Graph struct {
	App   string
	Nodes map[string]*Node
	Order []string // node IDs in discovery order (Root first)
}

// NewGraph creates a graph containing only the virtual root.
func NewGraph(app string) *Graph {
	g := &Graph{App: app, Nodes: make(map[string]*Node)}
	g.Order = append(g.Order, RootID)
	g.Nodes[RootID] = &Node{ID: RootID, Name: app, Type: uia.WindowControl}
	return g
}

// Ensure returns the node for id, creating it from the element on first use.
func (g *Graph) Ensure(id string, e *uia.Element, context string) *Node {
	if n, ok := g.Nodes[id]; ok {
		return n
	}
	n := &Node{
		ID:      id,
		Name:    e.Name(),
		Type:    e.Type(),
		Desc:    e.Description(),
		Context: context,
	}
	for cur := e; cur != nil; cur = cur.Parent() {
		if cur.LargeEnum() {
			n.LargeEnum = true
			break
		}
	}
	g.Nodes[id] = n
	g.Order = append(g.Order, id)
	return n
}

// ensureReveal is Ensure for a serialized reveal: the node fields were
// captured on the instance that computed the expansion (possibly another
// process), so no element pointer is needed and the resulting node is
// byte-identical to one Ensure would build from the live element.
func (g *Graph) ensureReveal(r Reveal, context string) *Node {
	if n, ok := g.Nodes[r.ID]; ok {
		return n
	}
	n := &Node{
		ID:        r.ID,
		Name:      r.Name,
		Type:      r.Type,
		Desc:      r.Desc,
		LargeEnum: r.LargeEnum,
		Context:   context,
	}
	g.Nodes[r.ID] = n
	g.Order = append(g.Order, r.ID)
	return n
}

// AddEdge inserts the edge from → to once; duplicates are ignored.
func (g *Graph) AddEdge(from, to string) {
	f, ok := g.Nodes[from]
	if !ok {
		return
	}
	t, ok := g.Nodes[to]
	if !ok {
		return
	}
	for _, o := range f.Out {
		if o == to {
			return
		}
	}
	f.Out = append(f.Out, to)
	t.In = append(t.In, from)
}

// NodeCount returns the number of nodes including the virtual root.
func (g *Graph) NodeCount() int { return len(g.Nodes) }

// EdgeCount returns the number of directed edges.
func (g *Graph) EdgeCount() int {
	n := 0
	for _, node := range g.Nodes {
		n += len(node.Out)
	}
	return n
}

// Leaves returns the IDs of functional nodes: nodes with no outgoing edges.
// Navigation (non-leaf) nodes reveal other controls when clicked.
func (g *Graph) Leaves() []string {
	var out []string
	for _, id := range g.Order {
		if len(g.Nodes[id].Out) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// MergeNodes returns the IDs of nodes with more than one incoming edge.
func (g *Graph) MergeNodes() []string {
	var out []string
	for _, id := range g.Order {
		if len(g.Nodes[id].In) > 1 {
			out = append(out, id)
		}
	}
	return out
}

// MaxDepth returns the length of the longest simple path from the root
// following BFS layering (a lower bound on true navigation depth, adequate
// for reporting).
func (g *Graph) MaxDepth() int {
	depth := map[string]int{RootID: 0}
	queue := []string{RootID}
	max := 0
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range g.Nodes[cur].Out {
			if _, seen := depth[next]; seen {
				continue
			}
			depth[next] = depth[cur] + 1
			if depth[next] > max {
				max = depth[next]
			}
			queue = append(queue, next)
		}
	}
	return max
}

// Validate checks structural invariants: edge endpoints exist, In/Out are
// consistent, and every node is reachable from the root. The checks that
// need the node map run first (Order and the map agree, every edge names a
// node); the rest run on the graph's edges as dense indexes (check), the
// same form DecodeBinary reads a snapshot into. Both walk nodes in
// discovery order, so the same broken graph always yields the same error.
func (g *Graph) Validate() error {
	if len(g.Order) != len(g.Nodes) {
		return fmt.Errorf("ung: %d nodes in discovery order, %d in the node map", len(g.Order), len(g.Nodes))
	}
	pos := make(map[string]int32, len(g.Order))
	for i, id := range g.Order {
		n, ok := g.Nodes[id]
		if !ok {
			return fmt.Errorf("ung: order references missing node %q", id)
		}
		if n.ID != id {
			return fmt.Errorf("ung: node key %q != node id %q", id, n.ID)
		}
		pos[id] = int32(i)
	}
	// An id listed twice leaves a node of the map out of the order.
	if len(pos) != len(g.Nodes) {
		return fmt.Errorf("ung: %d nodes in discovery order, %d in the node map", len(pos), len(g.Nodes))
	}
	a := adjacency{ends: make([]int, 2*len(g.Order))}
	for i, id := range g.Order {
		n := g.Nodes[id]
		for _, o := range n.Out {
			t, ok := pos[o]
			if !ok {
				return fmt.Errorf("ung: edge %q → missing node %q", id, o)
			}
			a.edges = append(a.edges, t)
		}
		a.ends[2*i] = len(a.edges)
		for _, from := range n.In {
			t, ok := pos[from]
			if !ok {
				t = -1 // names no node, so it is no edge's reverse entry
			}
			a.edges = append(a.edges, t)
		}
		a.ends[2*i+1] = len(a.edges)
	}
	root, ok := pos[RootID]
	if !ok {
		root = -1
	}
	return a.check(g.Order, int(root))
}

// adjacency holds a graph's edge lists as indexes into its discovery order,
// all in one buffer: node i's out edges are edges[ends[2i-1]:ends[2i]]
// (from 0 for node 0) and its in edges edges[ends[2i]:ends[2i+1]].
type adjacency struct {
	edges []int32
	ends  []int
}

func (a adjacency) out(i int) []int32 {
	start := 0
	if i > 0 {
		start = a.ends[2*i-1]
	}
	return a.edges[start:a.ends[2*i]]
}

func (a adjacency) in(i int32) []int32 { return a.edges[a.ends[2*i]:a.ends[2*i+1]] }

// check runs the structural checks on the dense form, nodes in discovery
// order: every out edge has its reverse entry, and every node is reachable
// from root (-1 when the graph has none). ids[i] names node i in errors.
func (a adjacency) check(ids []string, root int) error {
	for i, id := range ids {
		for _, t := range a.out(i) {
			if !slices.Contains(a.in(t), int32(i)) {
				return fmt.Errorf("ung: edge %q → %q missing reverse entry", id, ids[t])
			}
		}
	}
	seen := make([]bool, len(ids))
	queue := make([]int32, 0, len(ids))
	if root >= 0 {
		seen[root] = true
		queue = append(queue, int32(root))
	}
	for head := 0; head < len(queue); head++ {
		for _, t := range a.out(int(queue[head])) {
			if !seen[t] {
				seen[t] = true
				queue = append(queue, t)
			}
		}
	}
	if len(queue) != len(ids) {
		var missing []string
		for i, ok := range seen {
			if !ok {
				missing = append(missing, ids[i])
			}
		}
		sort.Strings(missing)
		return fmt.Errorf("ung: %d nodes unreachable from root (first: %.3q)", len(missing), missing)
	}
	return nil
}
