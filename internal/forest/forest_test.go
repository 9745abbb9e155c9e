package forest

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/uia"
	"repro/internal/ung"
)

// buildGraph assembles a UNG from an adjacency list rooted at [ROOT].
func buildGraph(t *testing.T, adj map[string][]string) *ung.Graph {
	t.Helper()
	g := ung.NewGraph("test")
	// Deterministic insertion: ROOT's own edges first, then by key of the
	// discovery order implied by the map walk over a fixed key list.
	var keys []string
	keys = append(keys, ung.RootID)
	seen := map[string]bool{ung.RootID: true}
	var walk func(id string)
	walk = func(id string) {
		for _, to := range adj[id] {
			if !seen[to] {
				seen[to] = true
				keys = append(keys, to)
				walk(to)
			}
		}
	}
	walk(ung.RootID)
	for _, from := range keys {
		for _, to := range adj[from] {
			g.AddEdge(node(g, from), node(g, to))
		}
	}
	g.Seal()
	return g
}

func TestTransformSimpleTree(t *testing.T) {
	g := buildGraph(t, map[string][]string{
		ung.RootID: {"a", "b"},
		"a":        {"a1", "a2"},
		"b":        {"b1"},
	})
	f, st, err := Transform(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BackEdgesRemoved != 0 || st.MergeNodes != 0 || st.Externalized != 0 {
		t.Errorf("tree input should transform trivially: %+v", st)
	}
	if f.Main.Count() != 6 || len(f.Shared) != 0 {
		t.Errorf("main=%d shared=%d", f.Main.Count(), len(f.Shared))
	}
	if f.NodeCount() != st.ForestNodes {
		t.Error("stats disagree with forest")
	}
}

func TestTransformRemovesCycle(t *testing.T) {
	g := buildGraph(t, map[string][]string{
		ung.RootID: {"collapse"},
		"collapse": {"pin"},
		"pin":      {"collapse", "x"},
	})
	f, st, err := Transform(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BackEdgesRemoved != 1 {
		t.Errorf("back edges removed = %d, want 1", st.BackEdgesRemoved)
	}
	// All nodes still present exactly once.
	names := map[string]int{}
	f.Main.Walk(func(n *Node) bool { names[n.ID]++; return true })
	for _, id := range []string{"collapse", "pin", "x"} {
		if names[id] != 1 {
			t.Errorf("node %q appears %d times", id, names[id])
		}
	}
}

func TestSmallMergeNodeCloned(t *testing.T) {
	// c has two parents and a tiny subtree: cloning is cheaper than a
	// shared subtree.
	g := buildGraph(t, map[string][]string{
		ung.RootID: {"a", "b"},
		"a":        {"c"},
		"b":        {"c"},
		"c":        {"leaf"},
	})
	f, st, err := Transform(g, Options{CloneThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st.Externalized != 0 || st.Cloned != 1 {
		t.Errorf("stats = %+v, want clone", st)
	}
	count := 0
	f.Main.Walk(func(n *Node) bool {
		if n.ID == "c" {
			count++
			if len(n.Children) != 1 || n.Children[0].ID != "leaf" {
				t.Error("cloned c lost its substructure")
			}
		}
		return true
	})
	if count != 2 {
		t.Errorf("c cloned %d times, want 2", count)
	}
}

func TestLargeMergeNodeExternalized(t *testing.T) {
	adj := map[string][]string{
		ung.RootID:  {"fontColor", "underlineColor", "outlineColor"},
		"fontColor": {"picker"}, "underlineColor": {"picker"}, "outlineColor": {"picker"},
	}
	// picker has a large substructure: 80 color cells.
	var cells []string
	for i := 0; i < 80; i++ {
		cells = append(cells, "cell"+string(rune('0'+i/10))+string(rune('0'+i%10)))
	}
	adj["picker"] = cells
	g := buildGraph(t, adj)

	f, st, err := Transform(g, Options{CloneThreshold: 64})
	if err != nil {
		t.Fatal(err)
	}
	if st.Externalized != 1 {
		t.Fatalf("externalized = %d, want 1 (stats %+v)", st.Externalized, st)
	}
	if len(f.Shared) != 1 || f.Shared["picker"] == nil {
		t.Fatal("picker not in shared subtrees")
	}
	if f.Shared["picker"].Count() != 81 {
		t.Errorf("picker subtree size = %d, want 81", f.Shared["picker"].Count())
	}
	// Each opener carries a 1-node reference instead of an 81-node clone.
	refs := 0
	f.Main.Walk(func(n *Node) bool {
		if n.IsRef() {
			refs++
			if n.RefTarget != "picker" {
				t.Errorf("ref target = %q", n.RefTarget)
			}
			if len(n.Children) != 0 {
				t.Error("reference node must have no children")
			}
		}
		return true
	})
	if refs != 3 {
		t.Errorf("reference nodes = %d, want 3", refs)
	}
	// Forest stays near-linear: 1 root + 3 openers + 3 refs + 81 shared.
	if f.NodeCount() != 88 {
		t.Errorf("forest nodes = %d, want 88", f.NodeCount())
	}
	// Naive cloning would instead triple the picker: 1+3+3*81 = 247.
	if st.NaiveTreeNodes != 247 {
		t.Errorf("naive size = %d, want 247", st.NaiveTreeNodes)
	}
}

func TestNaiveSizeExponentialBlowup(t *testing.T) {
	// A chain of diamond merges doubles the naive size at each level:
	// naive grows as 2^n while the forest stays linear (Figure 4).
	adj := map[string][]string{}
	prev := ung.RootID
	const levels = 40
	for i := 0; i < levels; i++ {
		l := fmtNode("l", i)
		r := fmtNode("r", i)
		m := fmtNode("m", i)
		adj[prev] = []string{l, r}
		adj[l] = []string{m}
		adj[r] = []string{m}
		prev = m
	}
	adj[prev] = []string{"end"}
	g := buildGraph(t, adj)
	f, st, err := Transform(g, Options{CloneThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.NaiveTreeNodes < 1<<levels {
		t.Errorf("naive size = %d, want ≥ 2^%d", st.NaiveTreeNodes, levels)
	}
	if f.NodeCount() > 10*levels {
		t.Errorf("forest size = %d, want linear in levels", f.NodeCount())
	}
}

func TestNaiveSizeSaturates(t *testing.T) {
	adj := map[string][]string{}
	prev := ung.RootID
	for i := 0; i < 200; i++ {
		l := fmtNode("l", i)
		r := fmtNode("r", i)
		m := fmtNode("m", i)
		adj[prev] = []string{l, r}
		adj[l] = []string{m}
		adj[r] = []string{m}
		prev = m
	}
	g := buildGraph(t, adj)
	_, st, err := Transform(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.NaiveTreeNodes != math.MaxInt64 {
		t.Errorf("naive size should saturate, got %d", st.NaiveTreeNodes)
	}
}

func TestNestedReferences(t *testing.T) {
	// inner is shared by two nodes of outer's subtree; outer is shared by
	// three openers: the outer shared subtree must contain references to
	// inner.
	adj := map[string][]string{
		ung.RootID: {"o1", "o2", "o3"},
		"o1":       {"outer"}, "o2": {"outer"}, "o3": {"outer"},
		"outer": {"x", "y"},
		"x":     {"inner"}, "y": {"inner"},
	}
	var leaves []string
	for i := 0; i < 40; i++ {
		leaves = append(leaves, fmtNode("leaf", i))
	}
	adj["inner"] = leaves
	g := buildGraph(t, adj)
	// With inner externalized, outer's materialized size is 5 (outer, x,
	// y, two refs), so its clone cost is (3-1)*5 = 10; threshold 8 forces
	// both subtrees out.
	f, st, err := Transform(g, Options{CloneThreshold: 8})
	if err != nil {
		t.Fatal(err)
	}
	if st.Externalized != 2 {
		t.Fatalf("externalized = %d, want outer and inner", st.Externalized)
	}
	outer := f.Shared["outer"]
	refs := 0
	outer.Walk(func(n *Node) bool {
		if n.IsRef() && n.RefTarget == "inner" {
			refs++
		}
		return true
	})
	if refs != 2 {
		t.Errorf("outer subtree has %d refs to inner, want 2", refs)
	}
}

// TestTransformRejectsDanglingEdge: an out-list index with no node behind
// it, or a graph that does not start at its virtual root, is an error, not
// a panic and not a read of some other node.
func TestTransformRejectsDanglingEdge(t *testing.T) {
	dangling := buildGraph(t, map[string][]string{ung.RootID: {"a"}, "a": {"b"}})
	dangling.Out(node(dangling, "a"))[0] = int32(len(dangling.Nodes))

	rootless := buildGraph(t, map[string][]string{ung.RootID: {"a"}})
	rootless.Nodes[0].ID = "not-the-root"

	empty := buildGraph(t, map[string][]string{ung.RootID: {"a"}})
	empty.Nodes = nil

	for name, g := range map[string]*ung.Graph{"dangling out edge": dangling, "first node not the root": rootless, "no root at all": empty} {
		if f, _, err := Transform(g, Options{}); err == nil {
			t.Errorf("%s: Transform returned a forest of %d nodes, want an error", name, f.NodeCount())
		}
	}
}

// Path-unambiguity: in every tree of the forest, each node instance has
// exactly one path from its tree root.
func TestPathUnambiguityProperty(t *testing.T) {
	check := func(f *Forest) bool {
		ok := true
		for _, tree := range append([]*Node{f.Main}, sharedTrees(f)...) {
			tree.Walk(func(n *Node) bool {
				p := n.PathFromRoot()
				if p[0] != tree || p[len(p)-1] != n {
					ok = false
				}
				for i := 1; i < len(p); i++ {
					if p[i].Parent != p[i-1] {
						ok = false
					}
				}
				return true
			})
		}
		return ok
	}

	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 60, 90)
		f, _, err := Transform(g, Options{CloneThreshold: 1 + rng.Intn(100)})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if !check(f) {
			t.Fatalf("trial %d: path ambiguity detected", trial)
		}
	}
}

// Every reachable UNG node appears somewhere in the forest (coverage), and
// reference targets always resolve.
func TestCoverageProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 50, 80)
		f, _, err := Transform(g, Options{CloneThreshold: 1 + rng.Intn(60)})
		if err != nil {
			t.Fatal(err)
		}
		present := map[string]bool{}
		for _, tree := range append([]*Node{f.Main}, sharedTrees(f)...) {
			tree.Walk(func(n *Node) bool {
				present[n.ID] = true
				if n.IsRef() && f.Shared[n.RefTarget] == nil {
					t.Fatalf("dangling reference to %q", n.RefTarget)
				}
				return true
			})
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err) // so every node is reachable
		}
		for _, n := range g.Nodes {
			if !present[n.ID] {
				t.Fatalf("trial %d: node %q missing from forest", trial, n.ID)
			}
		}
	}
}

// The forest never exceeds the naive tree in size, and with threshold 1
// (externalize every merge node) it is at most graph nodes + references.
func TestForestSizeBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 60, 100)
		f, st, err := Transform(g, Options{CloneThreshold: 1})
		if err != nil {
			t.Fatal(err)
		}
		if int64(f.NodeCount()) > st.NaiveTreeNodes {
			t.Fatalf("forest (%d) larger than naive tree (%d)", f.NodeCount(), st.NaiveTreeNodes)
		}
		// threshold 1: a merge node with in-degree d either clones (adds
		// ≤ threshold = 1 node) or externalizes (adds ≤ d reference
		// nodes), so growth is linear in total merge in-degree — the
		// paper's "linear node growth" guarantee.
		bound := st.GraphNodes
		for i := range int32(len(g.Nodes)) {
			if in := g.In(i); len(in) > 1 {
				bound += len(in)
			}
		}
		if f.NodeCount() > bound {
			t.Fatalf("forest %d exceeds linear bound %d", f.NodeCount(), bound)
		}
	}
}

func TestThresholdMonotonicity(t *testing.T) {
	// Higher thresholds externalize fewer subtrees.
	rng := rand.New(rand.NewSource(17))
	g := randomGraph(rng, 80, 140)
	prev := -1
	for _, th := range []int{1, 8, 32, 128, 1024} {
		_, st, err := Transform(g, Options{CloneThreshold: th})
		if err != nil {
			t.Fatal(err)
		}
		if prev >= 0 && st.Externalized > prev {
			t.Errorf("threshold %d externalized more (%d) than smaller threshold (%d)",
				th, st.Externalized, prev)
		}
		prev = st.Externalized
	}
}

func TestQuickDecycleAlwaysDAG(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 30, 70)
		_, _, err := Transform(g, Options{})
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// randomGraph builds a random connected digraph (possibly cyclic, with merge
// nodes) rooted at RootID.
func randomGraph(rng *rand.Rand, nodes, extraEdges int) *ung.Graph {
	g := ung.NewGraph("rand")
	ids := []int32{0}
	for i := 0; i < nodes; i++ {
		id := node(g, fmtNode("n", i))
		// attach to a random earlier node to keep everything reachable
		g.AddEdge(ids[rng.Intn(len(ids))], id)
		ids = append(ids, id)
	}
	for i := 0; i < extraEdges; i++ {
		from := ids[rng.Intn(len(ids))]
		to := ids[1+rng.Intn(len(ids)-1)]
		if from == to {
			continue
		}
		g.AddEdge(from, to)
	}
	g.Seal()
	return g
}

// node returns the index of the node with the given id, adding it as a
// button on first use.
func node(g *ung.Graph, id string) int32 {
	i, _ := g.AddNode(ung.Reveal{ID: id, Name: id, Type: uia.ButtonControl}, "")
	return i
}

func sharedTrees(f *Forest) []*Node {
	var out []*Node
	for _, id := range f.SharedOrder {
		out = append(out, f.Shared[id])
	}
	return out
}

func fmtNode(prefix string, i int) string {
	return prefix + string(rune('A'+i/26)) + string(rune('a'+i%26))
}

// TestTransformRecordsForestOrder: Transform numbers its nodes as it builds
// them, main tree in preorder then the shared subtrees in SharedOrder, so
// Number finds every position already in place; a hand-built forest gets
// the same numbering from Number.
func TestTransformRecordsForestOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 60, 120)
	f, st, err := Transform(g, Options{CloneThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Externalized == 0 {
		t.Fatal("fixture has no shared subtree")
	}
	var walked []*Node
	collect := func(n *Node) bool { walked = append(walked, n); return true }
	for _, tree := range append([]*Node{f.Main}, sharedTrees(f)...) {
		tree.Walk(collect)
	}
	for i, n := range walked {
		if n.Pos() != i {
			t.Fatalf("node %d of forest order (%q) has position %d after Transform", i, n.ID, n.Pos())
		}
	}
	numbered := f.Number()
	if len(numbered) != len(walked) {
		t.Fatalf("Number returned %d nodes, forest order has %d", len(numbered), len(walked))
	}
	for i, n := range numbered {
		if n != walked[i] || n.Pos() != i {
			t.Fatalf("Number diverges from forest order at %d", i)
		}
	}

	root := &Node{Node: &ung.Node{ID: ung.RootID}}
	a := &Node{Node: &ung.Node{ID: "a"}, Parent: root}
	ref := &Node{Node: &ung.Node{ID: "s"}, RefTarget: "s", Parent: root}
	root.Children = []*Node{a, ref}
	s := &Node{Node: &ung.Node{ID: "s"}}
	b := &Node{Node: &ung.Node{ID: "b"}, Parent: s}
	s.Children = []*Node{b}
	hand := &Forest{Main: root, Shared: map[string]*Node{"s": s}, SharedOrder: []string{"s"}}
	for i, n := range hand.Number() {
		if want := []*Node{root, a, ref, s, b}[i]; n != want || n.Pos() != i {
			t.Errorf("hand-built forest: position %d holds %q (Pos %d), want %q", i, n.ID, n.Pos(), want.ID)
		}
	}
}

// TestNodeSize: a transform allocates one node per forest position and
// every collection marks them all, so a node points at its UNG node rather
// than copying its fields, and stays at 64 bytes.
func TestNodeSize(t *testing.T) {
	if n := unsafe.Sizeof(Node{}); n > 64 {
		t.Errorf("Node is %d bytes, want at most 64", n)
	}
}

// TestNodesPointIntoTheGraph: a transformed forest's nodes point at the
// graph's own nodes, every clone of a node at the same one.
func TestNodesPointIntoTheGraph(t *testing.T) {
	g := buildGraph(t, map[string][]string{
		ung.RootID: {"a", "b"},
		"a":        {"m"},
		"b":        {"m"},
	})
	f, _, err := Transform(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	clones := 0
	for _, n := range f.Number() {
		i := slices.IndexFunc(g.Nodes, func(gn ung.Node) bool { return gn.ID == n.ID })
		if i < 0 || n.Node != &g.Nodes[i] {
			t.Fatalf("forest node %q does not point at its graph node", n.ID)
		}
		if n.ID == "m" {
			clones++
		}
	}
	if clones != 2 {
		t.Errorf("merge node m has %d clones, want 2 (one per parent)", clones)
	}
}
