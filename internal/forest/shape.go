package forest

import (
	"encoding/binary"
	"fmt"

	"repro/internal/ung"
)

// Forest shape codec. A restart from a snapshot (internal/modelstore) reads
// the forest back from its shape instead of running Transform on the
// decoded graph again: the shape names, in forest order, the graph node
// each forest node stands for, which nodes are references, and how many
// children the others have. Everything else a node holds follows from
// that order and the graph.
//
// Layout (unsigned varints, each in its shortest form):
//
//	nodeCount | sharedCount |
//	  nodeCount × ( graphIndex<<1 | ref, then childCount unless ref is 1 )
//
// Nodes are in forest order: the main tree in preorder, then each shared
// subtree, in SharedOrder, in preorder. Children follow their parent, so a
// node's child count says how many of the nodes after it (with their own
// subtrees) are its children.

// AppendShape appends the shape of f to b. f must have been built by
// Transform or DecodeShape, which record each node's graph index; a
// hand-built forest has none.
func AppendShape(b []byte, f *Forest) []byte {
	b = binary.AppendUvarint(b, uint64(f.NodeCount()))
	b = binary.AppendUvarint(b, uint64(len(f.SharedOrder)))
	put := func(n *Node) bool {
		v := uint64(n.index) << 1
		if n.IsRef() {
			b = binary.AppendUvarint(b, v|1)
			return true
		}
		b = binary.AppendUvarint(b, v)
		b = binary.AppendUvarint(b, uint64(len(n.Children)))
		return true
	}
	f.Main.Walk(put)
	for _, id := range f.SharedOrder {
		f.Shared[id].Walk(put)
	}
	return b
}

// DecodeShape rebuilds, from a shape AppendShape wrote, the forest that
// Transform made of g: the same nodes in one slab in forest order with
// their positions, the same child lists cut from one buffer, the same
// Parent, RefTarget, Shared and SharedOrder. It runs none of Transform's
// passes; the shape is trusted to be the transform of g as a snapshot's
// graph is trusted to be the rip, and is checked as strictly as
// ung.DecodeBinaryString checks a graph: every graph index is in range,
// the main tree's root is graph node 0, a reference has no children and
// names the root of a shared subtree, shared roots are distinct and none
// is node 0 or a reference, the recorded counts equal the decoded ones,
// the node count is refused before anything is allocated if the remaining
// bytes cannot hold it, and s is consumed exactly. Every string the forest
// holds is g's.
func DecodeShape(g *ung.Graph, s string) (*Forest, error) {
	r := shapeReader{s: s}
	count, err := r.uvarint("node count")
	if err != nil {
		return nil, err
	}
	shared, err := r.uvarint("shared count")
	if err != nil {
		return nil, err
	}
	// Every node takes at least one byte, and the main tree holds at least
	// one node besides the shared roots.
	if count == 0 || count > uint64(len(s)-r.off) {
		return nil, fmt.Errorf("forest: decode shape: node count %d exceeds the %d bytes left", count, len(s)-r.off)
	}
	if shared >= count {
		return nil, fmt.Errorf("forest: decode shape: %d shared subtrees in %d nodes", shared, count)
	}
	d := shapeDecoder{
		r:     r,
		nodes: g.Nodes,
		slab:  make([]Node, count),
		// Every node but a tree root is some node's child.
		kids: make([]*Node, count-1-shared),
	}
	f := &Forest{
		App:         g.App,
		Shared:      make(map[string]*Node, shared),
		SharedOrder: make([]string, 0, shared),
	}
	if f.Main, err = d.tree(); err != nil {
		return nil, err
	}
	if f.Main.index != 0 {
		return nil, fmt.Errorf("forest: decode shape: main tree starts at graph node %d, not 0", f.Main.index)
	}
	for int(d.next) < len(d.slab) {
		root, err := d.tree()
		if err != nil {
			return nil, err
		}
		if root.index == 0 {
			return nil, fmt.Errorf("forest: decode shape: shared subtree %d starts at graph node 0", len(f.SharedOrder))
		}
		if _, dup := f.Shared[root.ID]; dup {
			return nil, fmt.Errorf("forest: decode shape: shared subtree %q appears twice", root.ID)
		}
		f.Shared[root.ID] = root
		f.SharedOrder = append(f.SharedOrder, root.ID)
	}
	if uint64(len(f.SharedOrder)) != shared {
		return nil, fmt.Errorf("forest: decode shape: %d shared subtrees, header says %d", len(f.SharedOrder), shared)
	}
	if d.r.off != len(s) {
		return nil, fmt.Errorf("forest: decode shape: %d trailing bytes after the last node", len(s)-d.r.off)
	}
	for i := range d.slab {
		n := &d.slab[i]
		if !n.IsRef() {
			continue
		}
		if root := f.Shared[n.RefTarget]; root == nil || root.index != n.index {
			return nil, fmt.Errorf("forest: decode shape: node %d refers to %q, which is not a shared subtree", i, n.RefTarget)
		}
	}
	return f, nil
}

// shapeDecoder fills slab in forest order, taking child lists from kids;
// next is the position of the next node.
type shapeDecoder struct {
	r     shapeReader
	nodes []ung.Node
	slab  []Node
	kids  []*Node
	next  int32
	stack []openNode // the nodes of the tree being read whose children are not all read
}

// openNode is a node whose children are being read; filled counts those
// read so far.
type openNode struct {
	n      *Node
	filled int
}

// tree reads one tree in preorder and returns its root, which is not a
// reference.
func (d *shapeDecoder) tree() (*Node, error) {
	root, err := d.node(nil)
	if err != nil {
		return nil, err
	}
	if root.IsRef() {
		return nil, fmt.Errorf("forest: decode shape: tree root %d is a reference", root.pos)
	}
	d.stack = d.stack[:0]
	if len(root.Children) > 0 {
		d.stack = append(d.stack, openNode{n: root})
	}
	for len(d.stack) > 0 {
		top := &d.stack[len(d.stack)-1]
		n, err := d.node(top.n)
		if err != nil {
			return nil, err
		}
		top.n.Children[top.filled] = n
		if top.filled++; top.filled == len(top.n.Children) {
			d.stack = d.stack[:len(d.stack)-1]
		}
		if len(n.Children) > 0 {
			d.stack = append(d.stack, openNode{n: n})
		}
	}
	return root, nil
}

// node reads the next node and gives it its child list, still empty.
func (d *shapeDecoder) node(parent *Node) (*Node, error) {
	if int(d.next) == len(d.slab) {
		return nil, fmt.Errorf("forest: decode shape: a tree runs past the %d recorded nodes", len(d.slab))
	}
	v, err := d.r.uvarint("node")
	if err != nil {
		return nil, err
	}
	i := v >> 1
	if i >= uint64(len(d.nodes)) {
		return nil, fmt.Errorf("forest: decode shape: graph index %d out of range (%d nodes)", i, len(d.nodes))
	}
	// The slab is zeroed, so only the set fields are written: a whole-node
	// store would copy the node through the collector's bulk write barrier
	// whenever a collection is running.
	n := &d.slab[d.next]
	n.Node, n.pos, n.index, n.Parent = &d.nodes[i], d.next, int32(i), parent
	d.next++
	if v&1 != 0 {
		if n.ID == "" {
			return nil, fmt.Errorf("forest: decode shape: node %d refers to graph node %d, which has no id", n.pos, i)
		}
		n.RefTarget = n.ID
		return n, nil
	}
	k, err := d.r.uvarint("child count")
	if err != nil {
		return nil, err
	}
	if k > uint64(len(d.kids)) {
		return nil, fmt.Errorf("forest: decode shape: node %d has %d children, more than the nodes left", n.pos, k)
	}
	if k > 0 {
		n.Children, d.kids = d.kids[:k:k], d.kids[k:]
	}
	return n, nil
}

// shapeReader reads varints from a shape. A varint must be in its shortest
// form, so an accepted shape re-encodes to the same bytes.
type shapeReader struct {
	s   string
	off int
}

func (r *shapeReader) uvarint(field string) (uint64, error) {
	var v uint64
	var shift uint
	for i := 0; i < binary.MaxVarintLen64 && r.off+i < len(r.s); i++ {
		b := r.s[r.off+i]
		if b < 0x80 {
			if i > 0 && b == 0 || i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, fmt.Errorf("forest: decode shape: malformed %s", field)
			}
			r.off += i + 1
			return v | uint64(b)<<shift, nil
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, fmt.Errorf("forest: decode shape: truncated %s", field)
}
