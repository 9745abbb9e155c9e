package ung

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/uia"
)

// TestAddEdgeDuplicates: a node with a high out-degree and one with a high
// in-degree both ignore duplicate edges, whichever endpoint's list is the
// shorter, and both keep their lists in insertion order, whether the graph
// inserts its edges in place, as a sealed graph does, or logs them until
// it is sealed.
func TestAddEdgeDuplicates(t *testing.T) {
	t.Run("in place", func(t *testing.T) {
		g := NewGraph("Demo")
		g.Seal()
		testAddEdgeDuplicates(t, g)
	})
	t.Run("logged", func(t *testing.T) { testAddEdgeDuplicates(t, NewGraph("Demo")) })
}

func testAddEdgeDuplicates(t *testing.T, g *Graph) {
	add := func(id string) int32 {
		i, _ := g.AddNode(Reveal{ID: id, Name: id, Type: uia.ButtonControl}, "")
		return i
	}
	hub, sink := add("hub"), add("sink")
	g.AddEdge(0, hub)
	var mids []int32
	for k := range 40 {
		mids = append(mids, add(fmt.Sprint("mid", k)))
	}
	// Interleave the two fans so that neither list is built in one run.
	for _, m := range mids {
		g.AddEdge(hub, m)
		g.AddEdge(m, sink)
	}
	g.AddEdge(hub, sink)
	g.AddEdge(sink, sink)
	const edges = 2*40 + 3

	// Every edge again, in reverse: hub → mid scans the mid's one-entry In,
	// mid → sink the mid's one-entry Out, hub → sink either long list.
	for i := len(mids) - 1; i >= 0; i-- {
		g.AddEdge(mids[i], sink)
		g.AddEdge(hub, mids[i])
	}
	g.AddEdge(hub, sink)
	g.AddEdge(sink, sink)
	g.AddEdge(0, hub)

	g.Seal()
	if n := g.EdgeCount(); n != edges {
		t.Errorf("EdgeCount = %d after re-adding every edge, want %d", n, edges)
	}
	wantOut := append(slices.Clone(mids), sink)
	if got := g.Out(hub); !slices.Equal(got, wantOut) {
		t.Errorf("hub's Out = %v, want %v", got, wantOut)
	}
	wantIn := append(slices.Clone(mids), hub, sink)
	if got := g.In(sink); !slices.Equal(got, wantIn) {
		t.Errorf("sink's In = %v, want %v", got, wantIn)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

// TestReadBeforeSeal: a graph that still logs its edges has no lists to
// read, and reading one fails with a message that says so.
func TestReadBeforeSeal(t *testing.T) {
	g := NewGraph("Demo")
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "not sealed") {
			t.Errorf("Out on a graph being built: recovered %q, want a not-sealed panic", msg)
		}
	}()
	g.Out(0)
}

// TestAddNodeOnDecodedGraph: a decoded graph carries no id index, and
// AddNode builds one on first use, so every existing id still returns its
// own index with added false, and a new id is appended.
func TestAddNodeOnDecodedGraph(t *testing.T) {
	g, _ := ripDemo(t)
	data, err := EncodeBinary(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.index != nil {
		t.Fatal("a decoded graph carries an id index")
	}
	checkAddNodeDedupes(t, back)
}

// TestAddNodeAfterRip: a rip drops its id index when it finishes, and
// AddNode on the ripped graph still dedupes through a rebuilt one.
func TestAddNodeAfterRip(t *testing.T) {
	g, _ := ripDemo(t)
	if g.index != nil {
		t.Fatal("a ripped graph keeps the rip's id index")
	}
	checkAddNodeDedupes(t, g)
}

func checkAddNodeDedupes(t *testing.T, g *Graph) {
	t.Helper()
	n := g.NodeCount()
	for i := range n {
		id := g.Nodes[i].ID
		if got, added := g.AddNode(Reveal{ID: id, Name: "other"}, "ctx"); got != int32(i) || added {
			t.Fatalf("AddNode(%q) = %d, %v; want %d, false", id, got, added, i)
		}
	}
	if g.NodeCount() != n {
		t.Fatalf("re-adding every id grew the graph from %d to %d nodes", n, g.NodeCount())
	}
	if got, added := g.AddNode(Reveal{ID: "new"}, ""); got != int32(n) || !added {
		t.Errorf("AddNode(new id) = %d, %v; want %d, true", got, added, n)
	}
	if got, added := g.AddNode(Reveal{ID: "new"}, ""); got != int32(n) || added {
		t.Errorf("AddNode(new id) again = %d, %v; want %d, false", got, added, n)
	}
}

// nodeSizeLimit bounds a graph node: a model's graph holds one per
// control, 3,800 of them for Word. A node was 128 bytes while it carried
// its out and in lists as two slice headers; with every edge in the
// graph's one buffer it is 80.
const nodeSizeLimit = 80

func TestNodeSize(t *testing.T) {
	if size := reflect.TypeOf(Node{}).Size(); size > nodeSizeLimit {
		t.Errorf("a graph node is %d bytes, limit %d", size, nodeSizeLimit)
	}
}

// TestRippedEdgesPacked: a finished rip holds every edge list in one
// buffer, node by node, out before in, behind monotone offsets, with no
// edge log, no id index and no spare room in the node slab.
// Its lists are the ones the rip built, which the golden digest pins in
// order, and the ones its snapshot decodes to; an AddEdge after the rip
// changes only the two lists it grows.
func TestRippedEdgesPacked(t *testing.T) {
	for _, app := range catalogFactories {
		t.Run(app.name, func(t *testing.T) {
			g, _, err := Rip(app.new(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			n := len(g.Nodes)
			if g.lastIn != nil || g.index != nil {
				t.Fatalf("a ripped graph keeps an edge log (%d edges) or an id index (%d slots)",
					len(g.added), len(g.index))
			}
			if cap(g.Nodes) != n {
				t.Errorf("node slab has len %d, cap %d", n, cap(g.Nodes))
			}
			if len(g.off) != 2*n+1 || g.off[0] != 0 || int(g.off[2*n]) != len(g.edges) {
				t.Fatalf("%d offsets from %d to %d over %d edge entries, want %d from 0 to %d",
					len(g.off), g.off[0], g.off[len(g.off)-1], len(g.edges), 2*n+1, len(g.edges))
			}
			for k := 1; k < len(g.off); k++ {
				if g.off[k] < g.off[k-1] {
					t.Fatalf("offset %d is %d, below offset %d's %d", k, g.off[k], k-1, g.off[k-1])
				}
			}
			if err := g.Validate(); err != nil {
				t.Fatal(err)
			}
			bin, err := EncodeBinary(g)
			if err != nil {
				t.Fatal(err)
			}
			if sum := sha256.Sum256(bin); hex.EncodeToString(sum[:]) != catalogGolden[app.name].sha256 {
				t.Errorf("graph digest = %x, want %s", sum, catalogGolden[app.name].sha256)
			}
			back, err := DecodeBinary(bin)
			if err != nil {
				t.Fatal(err)
			}
			assertGraphsIdentical(t, g, back)

			outs := make([][]int32, n)
			ins := make([][]int32, n)
			for i := range int32(n) {
				outs[i], ins[i] = g.Out(i), g.In(i)
				for _, l := range [][]int32{outs[i], ins[i]} {
					if cap(l) != len(l) {
						t.Fatalf("node %d (%q): edge list has len %d, cap %d", i, g.Nodes[i].ID, len(l), cap(l))
					}
				}
				outs[i], ins[i] = slices.Clone(outs[i]), slices.Clone(ins[i])
			}
			// Grow a list in the middle of the buffer: node from gets an
			// edge to the root, which it cannot have had (nothing reveals
			// the root).
			from := int32(n / 2)
			for len(g.Out(from)) == 0 {
				from++
			}
			g.AddEdge(from, 0)
			outs[from] = append(outs[from], 0)
			ins[0] = append(ins[0], from)
			for i := range int32(n) {
				if !slices.Equal(g.Out(i), outs[i]) || !slices.Equal(g.In(i), ins[i]) {
					t.Fatalf("after AddEdge(%d, 0): node %d has out %v in %v, want out %v in %v",
						from, i, g.Out(i), g.In(i), outs[i], ins[i])
				}
			}
		})
	}
}
