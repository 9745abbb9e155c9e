// Package forest transforms the UI Navigation Graph into a
// path-unambiguous topology (paper §3.2): first cycles are removed
// (back-edge elimination yields a single-source DAG), then merge nodes are
// resolved by cost-based selective externalization, producing a forest of
// one main tree plus shared subtrees connected through reference nodes.
//
// The naive alternative — cloning every merge node's substructure along all
// incoming edges — guarantees unique paths but explodes exponentially
// (Figure 4); the package computes that size too, for comparison.
package forest

import (
	"fmt"
	"math"

	"repro/internal/ung"
)

// Node is one position in a tree of the forest. It points at the UNG node
// it was built from, whose fields (ID, Name, Type, Desc, LargeEnum) it
// reads through; clones of a merge node share one. A node with a non-empty
// RefTarget is a reference node: it stands for an externalized shared
// subtree and has no children of its own.
type Node struct {
	*ung.Node

	// pos is the node's position in forest order (Forest.Number).
	pos int32
	// index is the position in the graph's Nodes of the node embedded
	// above, which AppendShape records; it fits beside pos, so a node stays
	// 64 bytes.
	index int32

	RefTarget string // UNG id of the shared subtree this reference points to

	Parent   *Node
	Children []*Node
}

// Pos returns the node's position in its forest's order, as last recorded
// by Transform or Forest.Number; 0 for a node never numbered. A caller
// holding the numbered nodes checks that the position leads back to n.
func (n *Node) Pos() int { return int(n.pos) }

// IsRef reports whether the node is a reference into a shared subtree.
func (n *Node) IsRef() bool { return n.RefTarget != "" }

// IsLeaf reports whether the node has no children and is not a reference.
// Leaves are the functional controls; non-leaves are navigation controls
// that the visit interface filters out of LLM output (paper §3.4).
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 && !n.IsRef() }

// Walk visits n and every descendant in depth-first order.
func (n *Node) Walk(visit func(*Node) bool) {
	if !visit(n) {
		return
	}
	for _, c := range n.Children {
		c.Walk(visit)
	}
}

// Count returns the number of nodes in the subtree.
func (n *Node) Count() int {
	c := 0
	n.Walk(func(*Node) bool { c++; return true })
	return c
}

// PathFromRoot returns the chain of nodes from the tree root down to n,
// inclusive. Within a tree this path is unique — the path-unambiguity
// property the transformation exists to establish.
func (n *Node) PathFromRoot() []*Node {
	var rev []*Node
	for cur := n; cur != nil; cur = cur.Parent {
		rev = append(rev, cur)
	}
	out := make([]*Node, len(rev))
	for i, x := range rev {
		out[len(rev)-1-i] = x
	}
	return out
}

// Forest is the path-unambiguous topology: a main tree rooted at the
// application plus shared subtrees reachable through reference nodes. The
// entry map (reference node → subtree root) is implicit in RefTarget.
type Forest struct {
	App    string
	Main   *Node
	Shared map[string]*Node // UNG id of subtree root → tree
	// SharedOrder lists shared-subtree roots in externalization order.
	SharedOrder []string
}

// Number returns the forest's nodes in forest order — the main tree in
// preorder, then each shared subtree in SharedOrder — and records each
// node's position in that order, which Pos reports. Transform builds its
// nodes in this order and records their positions as it goes, so Number
// only reads a transformed forest; a hand-built one gets its positions on
// the first call.
func (f *Forest) Number() []*Node {
	nodes := make([]*Node, 0, f.NodeCount())
	number := func(n *Node) bool {
		if p := int32(len(nodes)); n.pos != p {
			n.pos = p
		}
		nodes = append(nodes, n)
		return true
	}
	f.Main.Walk(number)
	for _, id := range f.SharedOrder {
		f.Shared[id].Walk(number)
	}
	return nodes
}

// NodeCount returns the total node count across the main tree and all
// shared subtrees.
func (f *Forest) NodeCount() int {
	n := f.Main.Count()
	for _, s := range f.Shared {
		n += s.Count()
	}
	return n
}

// Options tunes the transformation.
type Options struct {
	// CloneThreshold is the cost (in additional cloned nodes) above which
	// a merge node is externalized as a shared subtree instead of being
	// cloned along each incoming edge. Default 64.
	CloneThreshold int
}

// Normalized returns the options with the defaults filled in — the exact
// values a transform would use. Cache fingerprints build on it.
func (o Options) Normalized() Options {
	if o.CloneThreshold <= 0 {
		o.CloneThreshold = 64
	}
	return o
}

// Stats reports what the transformation did.
type Stats struct {
	GraphNodes       int
	GraphEdges       int
	BackEdgesRemoved int
	MergeNodes       int
	Externalized     int
	Cloned           int // merge nodes resolved by cloning
	ForestNodes      int
	SharedSubtrees   int
	MainTreeNodes    int
	// NaiveTreeNodes is the size of the fully-cloned single tree (Figure
	// 4's exploding alternative), saturating at MaxInt64.
	NaiveTreeNodes int64
}

// Transform converts a UNG into a path-unambiguous forest.
//
// The passes below work on the graph's own form: nodes by their index in
// discovery order, the root at 0, edges as indexes. A UNG id is read only
// to label the node built from it.
//
// Every forest node points into g.Nodes, so g must not grow afterwards: a
// model's graph is frozen once built, and this is one reason why.
func Transform(g *ung.Graph, opt Options) (*Forest, Stats, error) {
	opt = opt.Normalized()
	var st Stats
	st.GraphNodes = g.NodeCount()
	st.GraphEdges = g.EdgeCount()

	if len(g.Nodes) == 0 || g.Nodes[0].ID != ung.RootID {
		return nil, st, fmt.Errorf("forest: graph does not start at the virtual root %q", ung.RootID)
	}
	const root = 0
	dag, reached, removed, err := decycle(g)
	if err != nil {
		return nil, st, err
	}
	st.BackEdgesRemoved = removed

	indeg := make([]int32, len(dag))
	for _, outs := range dag {
		for _, to := range outs {
			indeg[to]++
		}
	}
	for _, d := range indeg {
		if d > 1 {
			st.MergeNodes++
		}
	}

	order, err := topoOrder(dag, indeg, root, reached)
	if err != nil {
		return nil, st, err
	}

	st.NaiveTreeNodes = naiveSize(dag, order, root)

	// Cost-based selective externalization, bottom-up in reverse
	// topological order (paper §3.2): T(v) is the materialized subtree
	// size given prior decisions; externalizing replaces every occurrence
	// with a 1-node reference.
	size := make([]int64, len(dag))
	external := make([]bool, len(dag))
	var sharedNodes int64
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var t int64 = 1
		for _, c := range dag[v] {
			if external[c] {
				t++
			} else {
				t += size[c]
			}
		}
		size[v] = t
		if v == root {
			continue
		}
		if d := indeg[v]; d > 1 {
			cost := int64(d-1) * t
			if cost > int64(opt.CloneThreshold) {
				external[v] = true
				st.Externalized++
				sharedNodes += t
			} else {
				st.Cloned++
			}
		}
	}

	// size[v] is exactly the node count materialize(v) produces, so the
	// forest's nodes, and the child lists of all but the tree roots, come
	// from two buffers of known size. The slab fills in forest order (main
	// tree preorder, then the shared subtrees in SharedOrder), so a node's
	// slab index is its position (Pos).
	st.MainTreeNodes = int(size[root])
	st.ForestNodes = st.MainTreeNodes + int(sharedNodes)
	b := builder{
		nodes: g.Nodes, dag: dag, external: external,
		slab: make([]Node, st.ForestNodes),
		kids: make([]*Node, st.ForestNodes-1-st.Externalized),
	}
	f := &Forest{App: g.App, Shared: make(map[string]*Node, st.Externalized)}
	f.Main = b.materialize(root, nil)
	for _, v := range order {
		if external[v] {
			id := g.Nodes[v].ID
			f.Shared[id] = b.materialize(v, nil)
			f.SharedOrder = append(f.SharedOrder, id)
		}
	}

	st.SharedSubtrees = len(f.Shared)
	return f, st, nil
}

// decycle removes back edges found by iterative DFS from the root (node 0),
// returning the remaining adjacency, the number of nodes the DFS reached,
// and the number of edges removed (paper §3.2, "decycle the graph to a
// DAG"). Nodes the DFS never reaches keep no adjacency and no incoming
// edges. An edge to an index outside the graph is an error: the passes
// below would otherwise read a wrong node, or none.
func decycle(g *ung.Graph) (adj [][]int32, reached, removed int, err error) {
	const (
		unseen = iota
		onStack
		done
	)
	nodes := g.Nodes
	state := make([]uint8, len(nodes))
	adj = make([][]int32, len(nodes))
	// A node keeps a subsequence of its out list, so every adjacency fits
	// in a slice of one shared buffer capped at its out list's length.
	buf := make([]int32, g.EdgeCount())

	type frame struct {
		v int32
		i int
	}
	var stack []frame
	push := func(v int32) {
		stack = append(stack, frame{v: v})
		state[v] = onStack
		k := len(g.Out(v))
		adj[v], buf = buf[:0:k], buf[k:]
		reached++
	}
	push(0)
	for len(stack) > 0 {
		top := &stack[len(stack)-1]
		out := g.Out(top.v)
		if top.i >= len(out) {
			state[top.v] = done
			stack = stack[:len(stack)-1]
			continue
		}
		next := out[top.i]
		top.i++
		if next < 0 || int(next) >= len(nodes) {
			return nil, 0, 0, fmt.Errorf("forest: edge %q → node index %d out of range (%d nodes)", nodes[top.v].ID, next, len(nodes))
		}
		if state[next] == onStack {
			removed++ // back edge: drop it
			continue
		}
		adj[top.v] = append(adj[top.v], next)
		if state[next] == unseen {
			push(next)
		}
	}
	return adj, reached, removed, nil
}

// topoOrder returns a topological order of the DAG's reached nodes, root
// first. Kahn's algorithm from the root alone: every other reached node has
// an incoming DAG edge, and every edge into the root is a back edge. Ties
// break in adjacency order, so the order is deterministic. indeg is the
// DAG's in-degree per node; it is not modified.
func topoOrder(dag [][]int32, indeg []int32, root int32, reached int) ([]int32, error) {
	left := make([]int32, len(indeg))
	copy(left, indeg)
	order := make([]int32, 1, reached)
	order[0] = root
	for head := 0; head < len(order); head++ {
		for _, to := range dag[order[head]] {
			left[to]--
			if left[to] == 0 {
				order = append(order, to)
			}
		}
	}
	if len(order) != reached {
		return nil, fmt.Errorf("forest: decycled graph still has a cycle (%d of %d ordered)",
			len(order), reached)
	}
	return order, nil
}

// naiveSize computes the node count of the fully-cloned tree: every merge
// node duplicated along each incoming edge (the Figure 4 blow-up). The
// value is computed bottom-up and saturates at MaxInt64.
func naiveSize(dag [][]int32, order []int32, root int32) int64 {
	size := make([]int64, len(dag))
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		var t int64 = 1
		for _, c := range dag[v] {
			t = satAdd(t, size[c])
		}
		size[v] = t
	}
	return size[root]
}

func satAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

// builder materializes trees from the indexed DAG, taking nodes from slab
// and child lists from kids; next is the position of the next node built.
type builder struct {
	nodes    []ung.Node // the graph's nodes; dag indexes them
	dag      [][]int32
	external []bool
	slab     []Node
	kids     []*Node
	next     int32
}

// materialize builds the tree rooted at v, cloning non-externalized merge
// nodes per incoming edge and inserting reference nodes for externalized
// ones. Nested references (a shared subtree referencing another) arise
// naturally.
func (b *builder) materialize(v int32, parent *Node) *Node {
	n := b.newNode(v, parent)
	k := len(b.dag[v])
	if k == 0 {
		return n // a leaf keeps nil Children
	}
	n.Children, b.kids = b.kids[:k:k], b.kids[k:]
	for i, c := range b.dag[v] {
		if b.external[c] {
			ref := b.newNode(c, n)
			ref.RefTarget = b.nodes[c].ID
			n.Children[i] = ref
			continue
		}
		n.Children[i] = b.materialize(c, n)
	}
	return n
}

func (b *builder) newNode(v int32, parent *Node) *Node {
	// Field by field, as DecodeShape fills its slab (see there).
	n := &b.slab[0]
	b.slab = b.slab[1:]
	n.Node, n.pos, n.index, n.Parent = &b.nodes[v], b.next, v, parent
	b.next++
	return n
}
