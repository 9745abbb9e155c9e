package forest_test

import (
	"testing"

	"repro/internal/forest"
	"repro/internal/uia"
	"repro/internal/ung"
)

// encodeGraph builds a graph from edges in insertion order (the root is
// "[ROOT]"; other nodes appear on first mention) and returns its binary
// snapshot.
func encodeGraph(f *testing.F, edges [][2]string) []byte {
	f.Helper()
	g := ung.NewGraph("fuzz")
	node := func(id string) int32 {
		i, _ := g.AddNode(ung.Reveal{ID: id, Name: id, Type: uia.ButtonControl}, "")
		return i
	}
	for _, e := range edges {
		g.AddEdge(node(e[0]), node(e[1]))
	}
	g.Seal()
	data, err := ung.EncodeBinary(g)
	if err != nil {
		f.Fatal(err)
	}
	return data
}

// FuzzTransformDecoded feeds the forest transform whatever the snapshot
// decoder accepts, the path a restart takes: any graph DecodeBinary returns
// must transform without error or panic, every graph node must reach the
// forest, and every reference must resolve to a shared subtree. The
// committed corpus under testdata/fuzz/FuzzTransformDecoded is replayed by
// plain `go test`.
func FuzzTransformDecoded(f *testing.F) {
	root := ung.RootID
	f.Add(encodeGraph(f, [][2]string{{root, "a"}, {root, "b"}, {"a", "a1"}, {"b", "b1"}}))
	f.Add(encodeGraph(f, [][2]string{{root, "collapse"}, {"collapse", "pin"}, {"pin", "collapse"}, {"pin", "x"}, {"x", root}}))
	f.Add(encodeGraph(f, [][2]string{{root, "o1"}, {root, "o2"}, {"o1", "m"}, {"o2", "m"}, {"m", "leaf"}, {"m", "o1"}}))
	f.Add([]byte("UNGB\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ung.DecodeBinary(data)
		if err != nil {
			return
		}
		fr, st, err := forest.Transform(g, forest.Options{})
		if err != nil {
			t.Fatalf("Transform rejected a decoded graph: %v", err)
		}
		present := make(map[string]bool, len(g.Nodes))
		trees := []*forest.Node{fr.Main}
		for _, id := range fr.SharedOrder {
			trees = append(trees, fr.Shared[id])
		}
		count := 0
		for _, tree := range trees {
			tree.Walk(func(n *forest.Node) bool {
				present[n.ID] = true
				count++
				if n.IsRef() && fr.Shared[n.RefTarget] == nil {
					t.Fatalf("dangling reference to %q", n.RefTarget)
				}
				return true
			})
		}
		for _, n := range g.Nodes {
			if !present[n.ID] {
				t.Fatalf("node %q missing from the forest", n.ID)
			}
		}
		if count != st.ForestNodes {
			t.Fatalf("walked %d forest nodes, stats say %d", count, st.ForestNodes)
		}
	})
}
