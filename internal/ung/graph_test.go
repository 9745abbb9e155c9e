package ung

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/uia"
)

// TestAddEdgeDuplicates: a node with a high out-degree and one with a high
// in-degree both ignore duplicate edges, whichever endpoint's list is the
// shorter, and both keep their lists in insertion order.
func TestAddEdgeDuplicates(t *testing.T) {
	g := NewGraph("Demo")
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
	edges := g.EdgeCount()

	// Every edge again, in reverse: hub → mid scans the mid's one-entry In,
	// mid → sink the mid's one-entry Out, hub → sink either long list.
	for i := len(mids) - 1; i >= 0; i-- {
		g.AddEdge(mids[i], sink)
		g.AddEdge(hub, mids[i])
	}
	g.AddEdge(hub, sink)
	g.AddEdge(sink, sink)
	g.AddEdge(0, hub)

	if n := g.EdgeCount(); n != edges {
		t.Errorf("EdgeCount = %d after re-adding every edge, want %d", n, edges)
	}
	wantOut := append(slices.Clone(mids), sink)
	if got := g.Nodes[hub].Out; !slices.Equal(got, wantOut) {
		t.Errorf("hub's Out = %v, want %v", got, wantOut)
	}
	wantIn := append(slices.Clone(mids), hub, sink)
	if got := g.Nodes[sink].In; !slices.Equal(got, wantIn) {
		t.Errorf("sink's In = %v, want %v", got, wantIn)
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
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

// TestRippedEdgesPacked: a finished rip carves every edge list out of one
// buffer, node by node, Out before In, each capped at its length. The
// graph still validates and encodes to the same bytes, and an AddEdge
// after the rip leaves every other node's lists as they were.
func TestRippedEdgesPacked(t *testing.T) {
	for _, app := range catalogFactories {
		t.Run(app.name, func(t *testing.T) {
			g, _, err := Rip(app.new(), Config{})
			if err != nil {
				t.Fatal(err)
			}
			var next uintptr // where the next list must start, once one was seen
			for i := range g.Nodes {
				for _, l := range [][]int32{g.Nodes[i].Out, g.Nodes[i].In} {
					if len(l) == 0 {
						continue
					}
					if cap(l) != len(l) {
						t.Fatalf("node %d (%q): edge list has len %d, cap %d", i, g.Nodes[i].ID, len(l), cap(l))
					}
					p := reflect.ValueOf(l).Pointer()
					if next != 0 && p != next {
						t.Fatalf("node %d (%q): edge list does not follow the previous one in one buffer", i, g.Nodes[i].ID)
					}
					next = p + uintptr(len(l))*reflect.TypeOf(l[0]).Size()
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

			// Grow a list in the middle of the buffer: node from gets an
			// edge to the root, which it cannot have had (nothing reveals
			// the root).
			from := int32(len(g.Nodes) / 2)
			for len(g.Nodes[from].Out) == 0 {
				from++
			}
			outs := make([][]int32, len(g.Nodes))
			ins := make([][]int32, len(g.Nodes))
			for i := range g.Nodes {
				outs[i] = slices.Clone(g.Nodes[i].Out)
				ins[i] = slices.Clone(g.Nodes[i].In)
			}
			g.AddEdge(from, 0)
			outs[from] = append(outs[from], 0)
			ins[0] = append(ins[0], from)
			for i := range g.Nodes {
				if !slices.Equal(g.Nodes[i].Out, outs[i]) || !slices.Equal(g.Nodes[i].In, ins[i]) {
					t.Fatalf("after AddEdge(%d, 0): node %d has out %v in %v, want out %v in %v",
						from, i, g.Nodes[i].Out, g.Nodes[i].In, outs[i], ins[i])
				}
			}
		})
	}
}
