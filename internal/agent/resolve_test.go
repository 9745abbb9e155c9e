package agent

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/osworld"
	"repro/internal/taskpack"
	"repro/internal/uia"
	"repro/internal/ung"
)

func wordModel(t *testing.T) *describe.Model {
	t.Helper()
	return sharedModels(t).ByApp["Word"]
}

func TestResolveByPrimaryAndContainer(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := wordModel(t)
	r, err := resolveTarget(m, osworld.Target{Primary: "Landscape", GIDContains: "mnuOrientation"})
	if err != nil {
		t.Fatal(err)
	}
	if r.node.Name != "Landscape" || r.nonLeaf {
		t.Fatalf("resolved %+v", r.node)
	}
	if len(r.refs) != 0 {
		t.Error("main-tree target should need no entry refs")
	}
}

func TestResolveViaPicksSemanticPath(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := wordModel(t)
	font, err := resolveTarget(m, osworld.Target{
		Primary: "Blue", GIDContains: "clrPickerStd", Via: "btnFontColor"})
	if err != nil {
		t.Fatal(err)
	}
	und, err := resolveTarget(m, osworld.Target{
		Primary: "Blue", GIDContains: "clrPickerStd", Via: "btnUnderlineColor"})
	if err != nil {
		t.Fatal(err)
	}
	if font.node != und.node {
		t.Fatal("both paths should resolve to the same shared-subtree cell")
	}
	if len(font.refs) == 0 || len(und.refs) == 0 {
		t.Fatal("shared-subtree targets need entry refs")
	}
	if font.refs[0] == und.refs[0] {
		t.Fatal("different Via openers must yield different entry refs")
	}
	// The refs route through the named openers.
	fr := m.Node(font.refs[0])
	if !pathContainsPrimary(fr.PathFromRoot(), "btnFontColor") {
		t.Error("font ref does not pass through Font Color")
	}
}

func TestResolveUnknownTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := wordModel(t)
	if _, err := resolveTarget(m, osworld.Target{Primary: "No Such Control Anywhere"}); err == nil {
		t.Fatal("unknown target resolved")
	}
}

func TestResolveNonLeafFallback(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	// "Pie" in Excel's recommended-charts gallery reveals the contextual
	// Chart Design tab during ripping, so it is a non-leaf functional
	// control: resolution must flag the imperative slow path.
	m := sharedModels(t).ByApp["Excel"]
	r, err := resolveTarget(m, osworld.Target{Primary: "Pie", GIDContains: "galQuickCharts"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.nonLeaf {
		t.Fatal("context-revealing control should be flagged non-leaf")
	}
}

func TestSiblingDistractor(t *testing.T) {
	parent := &forest.Node{Node: &ung.Node{Name: "menu"}}
	mk := func(n string) *forest.Node {
		c := &forest.Node{Node: &ung.Node{Name: n}, Parent: parent}
		parent.Children = append(parent.Children, c)
		return c
	}
	a := mk("A")
	mk("B")
	mk("C")
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20; i++ {
		d := siblingDistractor(a, rng.Intn)
		if d == nil || d == a {
			t.Fatal("distractor must be a different sibling")
		}
	}
	lonely := &forest.Node{Node: &ung.Node{Name: "only"}}
	root := &forest.Node{Children: []*forest.Node{lonely}}
	lonely.Parent = root
	if siblingDistractor(lonely, rng.Intn) != nil {
		t.Error("no sibling available: distractor must be nil")
	}
	if siblingDistractor(root, rng.Intn) != nil {
		t.Error("root has no parent: distractor must be nil")
	}
}

func TestInCoreTopology(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := wordModel(t)
	// A ribbon-level control is in the core; a font-list item (large
	// enumeration) is not.
	landscape, _ := resolveTarget(m, osworld.Target{Primary: "Landscape", GIDContains: "mnuOrientation"})
	if !inCoreTopology(landscape.node) {
		t.Error("ribbon control should be inside the core topology")
	}
	var fontItem *forest.Node
	m.Forest.Main.Walk(func(n *forest.Node) bool {
		if fontItem == nil && n.IsLeaf() && n.LargeEnum &&
			strings.Contains(n.ID, "wFontName") {
			fontItem = n
		}
		return true
	})
	if fontItem == nil {
		t.Fatal("no font list item found")
	}
	if inCoreTopology(fontItem) {
		t.Error("large-enumeration item should be outside the core topology")
	}
}

// TestGidPrimary: the resolver matches targets on the primary part of a
// control id, which it takes from uia.SplitControlID.
func TestGidPrimary(t *testing.T) {
	cases := map[string]string{
		"btnBold|Button|a/b": "btnBold",
		"plain":              "plain",
		"|Button|x":          "",
	}
	for in, want := range cases {
		if got, _, _ := uia.SplitControlID(in); got != want {
			t.Errorf("SplitControlID(%q) primary = %q, want %q", in, got, want)
		}
	}
}

// TestFailureChannelsReachVerifier: forcing one channel to certainty makes
// the matching failure appear — the taxonomy is wired end to end.
func TestFailureChannelsReachVerifier(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := sharedModels(t)
	task, _ := taskpack.Builtin().ByID("excel-freeze") // ControlSem trap, weight 0.5
	p := oracle()
	p.ControlSem = 1 // the trap fires with its weight (0.5) per run
	cfg := Config{Interface: GUIDMI, Profile: p, TopologyMissRate: -1}
	sawTrap := false
	for seed := int64(0); seed < 20; seed++ {
		out := Run(m, task, cfg, rand.New(rand.NewSource(seed)))
		if !out.Success && out.Failure == osworld.FailControlSem {
			sawTrap = true
			break
		}
	}
	if !sawTrap {
		t.Fatal("control-semantics trap never surfaced as a classified failure")
	}
}

// TestStepCapEnforced: an agent that can never finish hits the 30-step cap.
func TestStepCapEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := sharedModels(t)
	task, _ := taskpack.Builtin().ByID("word-bold")
	p := oracle()
	p.Composite = 1 // every composite round misses
	p.Detect = 1    // always detected → endless retry rounds
	cfg := Config{Interface: GUIOnly, Profile: p, TopologyMissRate: -1, StepCap: 4}
	out := Run(m, task, cfg, rand.New(rand.NewSource(1)))
	if out.Success {
		t.Fatal("capped run must not count as success")
	}
	if out.Steps > 4 {
		t.Fatalf("steps %d exceeded the cap", out.Steps)
	}
	if out.Failure != osworld.FailStepCap && out.Failure != osworld.FailComposite {
		t.Fatalf("failure = %q, want step-cap or composite", out.Failure)
	}
}

// TestResolveIndexMatchesWalk: resolving through the model's name index
// must give exactly what the whole-forest walk it replaced gives — same
// node, entry refs, nonLeaf flag and error text — for every plan target
// and trap alternative of every task, on every catalog model (targets of
// other apps exercise the not-found path).
func TestResolveIndexMatchesWalk(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	var targets []osworld.Target
	for _, task := range osworld.All() {
		for _, step := range task.Plan {
			targets = append(targets, step.Target)
			if step.TrapAlt != nil {
				targets = append(targets, *step.TrapAlt)
			}
		}
	}
	models := sharedModels(t)
	found := 0
	for _, app := range AppNames() {
		m := models.ByApp[app]
		for _, tgt := range targets {
			got, gotErr := resolveTarget(m, tgt)
			want, wantErr := resolveTargetWalk(m, tgt)
			if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
				t.Errorf("%s %+v: error %v, walk gives %v", app, tgt, gotErr, wantErr)
				continue
			}
			if got.node != want.node || got.nonLeaf != want.nonLeaf || !slices.Equal(got.refs, want.refs) {
				t.Errorf("%s %+v: resolved %+v, walk gives %+v", app, tgt, got, want)
			}
			if gotErr == nil {
				found++
			}
		}
	}
	if found == 0 {
		t.Fatal("no target resolved: the comparison checked only errors")
	}
}

// TestResolveIndexFirstUseConcurrent: sessions share a warm model, so the
// name index may be built by several sessions' first resolutions at once.
// Run under -race.
func TestResolveIndexFirstUseConcurrent(t *testing.T) {
	if testing.Short() {
		t.Skip("office-scale")
	}
	m := describe.NewModel(sharedModels(t).ByApp["Settings"].Forest)
	var targets []osworld.Target
	for _, task := range osworld.All() {
		if task.App == "Settings" {
			for _, step := range task.Plan {
				targets = append(targets, step.Target)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, tgt := range targets {
				got, gotErr := resolveTarget(m, tgt)
				want, wantErr := resolveTargetWalk(m, tgt)
				if got.node != want.node || fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%+v: resolved %v (%v), walk gives %v (%v)", tgt, got.node, gotErr, want.node, wantErr)
				}
			}
		}()
	}
	wg.Wait()
}

// resolveTargetWalk is the reference resolver: it collects candidates by
// walking the whole forest — the main tree, then each shared subtree in
// SharedOrder — and picks among them exactly as resolveTarget does.
func resolveTargetWalk(m *describe.Model, t osworld.Target) (resolved, error) {
	var candidates []*forest.Node
	var nonLeaf []*forest.Node
	collect := func(tree *forest.Node) {
		tree.Walk(func(n *forest.Node) bool {
			if p, _, _ := uia.SplitControlID(n.ID); p != t.Primary && n.Name != t.Primary {
				return true
			}
			if t.GIDContains != "" && !strings.Contains(n.ID, t.GIDContains) {
				ok := false
				for _, anc := range n.PathFromRoot() {
					if strings.Contains(anc.ID, t.GIDContains) {
						ok = true
						break
					}
				}
				if !ok {
					return true
				}
			}
			if n.IsLeaf() {
				candidates = append(candidates, n)
			} else if !n.IsRef() {
				nonLeaf = append(nonLeaf, n)
			}
			return true
		})
	}
	collect(m.Forest.Main)
	for _, id := range m.Forest.SharedOrder {
		collect(m.Forest.Shared[id])
	}
	if len(candidates) == 0 && len(nonLeaf) == 0 {
		return resolved{}, fmt.Errorf("agent: target %q not in topology", t.Primary)
	}
	return pickResolved(m, t, candidates, nonLeaf)
}
