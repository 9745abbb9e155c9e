package forest

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/appkit"
	"repro/internal/apps/filemgr"
	"repro/internal/apps/settings"
	"repro/internal/office/excel"
	"repro/internal/office/slides"
	"repro/internal/office/word"
	"repro/internal/ung"
)

// sameForest fails t unless got matches want node for node: graph node,
// graph index, position, parent, reference target and child order, then
// Shared and SharedOrder.
func sameForest(t *testing.T, name string, want, got *Forest) {
	t.Helper()
	if got.App != want.App || !slices.Equal(got.SharedOrder, want.SharedOrder) || len(got.Shared) != len(want.Shared) {
		t.Fatalf("%s: app %q shared %v, want %q %v", name, got.App, got.SharedOrder, want.App, want.SharedOrder)
	}
	pos := func(n *Node) int {
		if n == nil {
			return -1
		}
		return n.Pos()
	}
	w, g := want.Number(), got.Number()
	if len(g) != len(w) {
		t.Fatalf("%s: %d nodes, want %d", name, len(g), len(w))
	}
	for i := range w {
		a, b := w[i], g[i]
		if b.Node != a.Node || b.index != a.index || b.Pos() != i || pos(b.Parent) != pos(a.Parent) ||
			b.RefTarget != a.RefTarget || len(b.Children) != len(a.Children) {
			t.Fatalf("%s: node %d is %q (parent %d, %d children), want %q (parent %d, %d children)",
				name, i, b.ID, pos(b.Parent), len(b.Children), a.ID, pos(a.Parent), len(a.Children))
		}
		for k := range a.Children {
			if pos(b.Children[k]) != pos(a.Children[k]) {
				t.Fatalf("%s: child %d of node %d is at %d, want %d", name, k, i, pos(b.Children[k]), pos(a.Children[k]))
			}
		}
	}
	for id, root := range want.Shared {
		if pos(got.Shared[id]) != pos(root) {
			t.Fatalf("%s: shared subtree %q at %d, want %d", name, id, pos(got.Shared[id]), pos(root))
		}
	}
}

// roundTrip transforms g and checks that DecodeShape rebuilds the same
// forest from its shape.
func roundTrip(t *testing.T, name string, g *ung.Graph, opt Options) {
	t.Helper()
	want, _, err := Transform(g, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeShape(g, string(AppendShape(nil, want)))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sameForest(t, name, want, got)
}

// TestShapeRoundTripCatalog: on every catalog app's graph and on the demo
// graph of the committed snapshot golden, the forest read back from its
// shape is the forest Transform made.
func TestShapeRoundTripCatalog(t *testing.T) {
	for _, app := range []struct {
		name string
		new  func() *appkit.App
	}{
		{"Word", func() *appkit.App { return word.New().App }},
		{"Excel", func() *appkit.App { return excel.New().App }},
		{"PowerPoint", func() *appkit.App { return slides.New(12).App }},
		{"Settings", func() *appkit.App { return settings.New().App }},
		{"Files", func() *appkit.App { return filemgr.New().App }},
	} {
		g, _, err := ung.Rip(app.new(), ung.Config{})
		if err != nil {
			t.Fatal(err)
		}
		roundTrip(t, app.name, g, Options{})
	}
	data, err := os.ReadFile("../ung/testdata/demo_snapshot.golden.ungb")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ung.DecodeBinary(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range []int{1, 0} {
		roundTrip(t, "demo/threshold "+strconv.Itoa(th), g, Options{CloneThreshold: th})
	}
}

// TestShapeRoundTripRandom covers nested references and many shared
// subtrees, which the catalog has few of.
func TestShapeRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := range 40 {
		g := randomGraph(rng, 40, 90)
		roundTrip(t, "random "+strconv.Itoa(i), g, Options{CloneThreshold: 1 + i%8})
	}
}

// shapeGraph is the graph FuzzShapeDecode decodes against: two parents
// share a merge node m with two children, and a leaf n; under threshold 1
// m becomes a shared subtree and n is cloned. Its nodes are, by index,
// [ROOT] a b m n x y.
func shapeGraph() *ung.Graph {
	g := ung.NewGraph("shape")
	for _, e := range [][2]string{{ung.RootID, "a"}, {ung.RootID, "b"}, {"a", "m"}, {"a", "n"}, {"b", "m"}, {"b", "n"}, {"m", "x"}, {"m", "y"}} {
		g.AddEdge(node(g, e[0]), node(g, e[1]))
	}
	g.Seal()
	return g
}

// ref marks a shapeNode as a reference.
const ref = -1

// shapeNode is one node of a hand-written shape: its graph index and its
// child count, or ref.
type shapeNode struct{ index, children int }

// writeShape encodes a shape by hand, headers included as given.
func writeShape(count, shared int, nodes ...shapeNode) []byte {
	b := binary.AppendUvarint(nil, uint64(count))
	b = binary.AppendUvarint(b, uint64(shared))
	for _, n := range nodes {
		if n.children == ref {
			b = binary.AppendUvarint(b, uint64(n.index)<<1|1)
			continue
		}
		b = binary.AppendUvarint(b, uint64(n.index)<<1)
		b = binary.AppendUvarint(b, uint64(n.children))
	}
	return b
}

// shapeMain is shapeGraph's main tree under threshold 1, and shapeShared
// its one shared subtree.
var (
	shapeMain   = []shapeNode{{0, 2}, {1, 2}, {3, ref}, {4, 0}, {2, 2}, {3, ref}, {4, 0}}
	shapeShared = []shapeNode{{3, 2}, {5, 0}, {6, 0}}
)

// shapeCase is a shape and the DecodeShape error it must draw ("" for
// none); name is a committed seed's file name.
type shapeCase struct {
	name, err string
	data      []byte
}

// shapeSeeds are the committed FuzzShapeDecode seeds.
func shapeSeeds() []shapeCase {
	valid := writeShape(10, 1, append(append([]shapeNode{}, shapeMain...), shapeShared...)...)
	with := func(i int, n shapeNode) []byte {
		nodes := append(append([]shapeNode{}, shapeMain...), shapeShared...)
		nodes[i] = n
		return writeShape(10, 1, nodes...)
	}
	return []shapeCase{
		{"seed_valid", "", valid},
		{"seed_truncated", "node count 10 exceeds the 8 bytes left", valid[:len(valid)/2]},
		{"seed_index_out_of_range", "graph index 7 out of range", with(3, shapeNode{7, 0})},
		{"seed_ref_not_shared", `refers to "n", which is not a shared subtree`, with(3, shapeNode{4, ref})},
		{"seed_duplicate_shared_root", `shared subtree "m" appears twice`,
			writeShape(13, 2, append(append(append([]shapeNode{}, shapeMain...), shapeShared...), shapeShared...)...)},
	}
}

// TestShapeSeeds: the valid seed is the shape of shapeGraph's transform,
// every other seed draws its own error, and each committed seed file
// holds its seed.
func TestShapeSeeds(t *testing.T) {
	g := shapeGraph()
	f, _, err := Transform(g, Options{CloneThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range shapeSeeds() {
		if s.err == "" && !bytes.Equal(s.data, AppendShape(nil, f)) {
			t.Errorf("%s is not the shape of the transform", s.name)
		}
		_, err := DecodeShape(g, string(s.data))
		if s.err == "" && err != nil || s.err != "" && (err == nil || !strings.Contains(err.Error(), s.err)) {
			t.Errorf("%s: DecodeShape error %v, want %q", s.name, err, s.err)
		}
		file, err := os.ReadFile(filepath.Join("testdata/fuzz/FuzzShapeDecode", s.name))
		if err != nil {
			t.Fatal(err)
		}
		if want := "go test fuzz v1\n[]byte(" + strconv.Quote(string(s.data)) + ")\n"; string(file) != want {
			t.Errorf("committed seed %s does not hold the seed", s.name)
		}
	}
}

// TestDecodeShapeRejects: the checks no seed covers.
func TestDecodeShapeRejects(t *testing.T) {
	g := shapeGraph()
	all := append(append([]shapeNode{}, shapeMain...), shapeShared...)
	for _, c := range []shapeCase{
		{"empty", "truncated node count", nil},
		{"count past the bytes", "exceeds the", writeShape(1000, 1, all...)},
		{"count zero", "exceeds the", writeShape(0, 0)},
		{"shared count not below the node count", "2 shared subtrees in 2 nodes", writeShape(2, 2, shapeNode{0, 0}, shapeNode{3, 0})},
		{"overlong varint", "malformed node", append(writeShape(2, 0), 0x80, 0x00, 0, 0)},
		{"trailing byte", "1 trailing bytes", append(writeShape(10, 1, all...), 0)},
		{"fewer nodes than recorded", "truncated node", writeShape(11, 1, all...)},
		{"more nodes than recorded", "runs past the 3 recorded nodes", writeShape(3, 0, shapeNode{0, 1}, shapeNode{1, 0}, shapeNode{3, 1}, shapeNode{5, 0})},
		{"more shared subtrees than recorded", "1 shared subtrees, header says 0", writeShape(10, 0, all...)},
		{"main root not node 0", "main tree starts at graph node 1", writeShape(10, 1, append([]shapeNode{{1, 2}}, all[1:]...)...)},
		{"shared root node 0", "starts at graph node 0", writeShape(10, 1, append(append([]shapeNode{}, shapeMain...), shapeNode{0, 2}, shapeNode{5, 0}, shapeNode{6, 0})...)},
		{"tree root a reference", "tree root 0 is a reference", writeShape(10, 1, append([]shapeNode{{0, ref}}, all[1:]...)...)},
		{"children past the nodes left", "more than the nodes left", writeShape(10, 1, append([]shapeNode{{0, 9}}, all[1:]...)...)},
	} {
		_, err := DecodeShape(g, string(c.data))
		if err == nil || !strings.Contains(err.Error(), c.err) {
			t.Errorf("%s: DecodeShape error %v, want %q", c.name, err, c.err)
		}
	}
}

// FuzzShapeDecode hardens the shape decoder a restart runs on a snapshot's
// model section: DecodeShape must never panic, must allocate no more than
// a fixed multiple of its input (the node count is bounded by the bytes
// left before anything is allocated), and every shape it accepts must
// re-encode to the same bytes. The committed corpus under
// testdata/fuzz/FuzzShapeDecode is replayed by plain `go test`.
func FuzzShapeDecode(f *testing.F) {
	for _, s := range shapeSeeds() {
		f.Add(s.data)
	}
	g := shapeGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		fr, err := DecodeShape(g, string(data))
		runtime.ReadMemStats(&after)
		// Per input byte at most one node: 64 bytes of slab, a child
		// pointer, a stack frame (doubled by append's growth) and a shared
		// subtree's map slot and order entry; the constant covers the
		// headers and an error message.
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(256*len(data)+16<<10); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes, bound %d", len(data), grew, bound)
		}
		if err != nil {
			return
		}
		if again := AppendShape(nil, fr); !bytes.Equal(again, data) {
			t.Fatalf("accepted shape re-encodes to %x, not %x", again, data)
		}
	})
}
