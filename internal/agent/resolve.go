package agent

import (
	"fmt"
	"strings"

	"repro/internal/describe"
	"repro/internal/forest"
	"repro/internal/osworld"
	"repro/internal/uia"
)

// resolved is a Target bound to the offline model: the forest node plus the
// entry references needed to reach it when it lives in a shared subtree.
type resolved struct {
	node *forest.Node
	refs []int // entry reference ids, outermost first
	// nonLeaf marks a functional control that the ripper observed
	// revealing further UI (e.g. a gallery item that activates a
	// contextual tab). The visit filter would drop it, so the agent must
	// take the imperative slow path (§5.7, explicit navigation-node
	// access).
	nonLeaf bool
}

// resolveTarget binds an interface-agnostic Target to the topology. When
// the target sits in a shared subtree (or was cloned along several paths),
// the Via opener picks the semantically correct instance — font color vs
// underline color. Candidates come from the model's name index in forest
// order: main tree first, then the shared subtrees in externalization order.
func resolveTarget(m *describe.Model, t osworld.Target) (resolved, error) {
	var candidates []*forest.Node
	var nonLeaf []*forest.Node
	for _, id := range m.IDsNamed(t.Primary) {
		n := m.Node(int(id))
		if t.GIDContains != "" && !withinGID(n, t.GIDContains) {
			continue
		}
		if n.IsLeaf() {
			candidates = append(candidates, n)
		} else if !n.IsRef() {
			nonLeaf = append(nonLeaf, n)
		}
	}
	if len(candidates) == 0 && len(nonLeaf) == 0 {
		return resolved{}, fmt.Errorf("agent: target %q not in topology", t.Primary)
	}
	return pickResolved(m, t, candidates, nonLeaf)
}

// pickResolved binds the first candidate whose path honours t.Via, leaves
// before non-leaf functional controls.
func pickResolved(m *describe.Model, t osworld.Target, candidates, nonLeaf []*forest.Node) (resolved, error) {
	pick := func(list []*forest.Node, markNonLeaf bool) (resolved, bool) {
		for _, n := range list {
			tree := m.TreeOf(n)
			if tree == "" {
				// Main-tree instance: its path must honour Via if given.
				if t.Via == "" || pathContainsPrimary(n.PathFromRoot(), t.Via) {
					return resolved{node: n, nonLeaf: markNonLeaf}, true
				}
				continue
			}
			refs, ok := refChain(m, tree, t.Via)
			if !ok {
				continue
			}
			return resolved{node: n, refs: refs, nonLeaf: markNonLeaf}, true
		}
		return resolved{}, false
	}
	if r, ok := pick(candidates, false); ok {
		return r, nil
	}
	if r, ok := pick(nonLeaf, true); ok {
		return r, nil
	}
	return resolved{}, fmt.Errorf("agent: no instance of %q reachable via %q", t.Primary, t.Via)
}

// refChain finds entry references from the main tree into the shared
// subtree, preferring a reference whose path passes through the Via opener.
// Nested references (subtree → subtree) are followed one level.
func refChain(m *describe.Model, tree string, via string) ([]int, bool) {
	var fallback []int
	for _, r := range m.RefsTo(tree) {
		holder := m.TreeOf(r)
		if holder == "" {
			if via == "" || pathContainsPrimary(r.PathFromRoot(), via) {
				return []int{m.ID(r)}, true
			}
			if fallback == nil {
				fallback = []int{m.ID(r)}
			}
			continue
		}
		// The reference itself sits in another shared subtree: chain
		// through one of that subtree's own main-tree references.
		for _, outer := range m.RefsTo(holder) {
			if m.TreeOf(outer) != "" {
				continue
			}
			chain := []int{m.ID(outer), m.ID(r)}
			if via == "" || pathContainsPrimary(outer.PathFromRoot(), via) ||
				pathContainsPrimary(r.PathFromRoot(), via) {
				return chain, true
			}
			if fallback == nil {
				fallback = chain
			}
		}
	}
	return fallback, fallback != nil
}

// withinGID reports whether the UNG id of n or of one of its ancestors
// within its tree contains sub: the container constraint of a Target.
func withinGID(n *forest.Node, sub string) bool {
	for ; n != nil; n = n.Parent {
		if strings.Contains(n.ID, sub) {
			return true
		}
	}
	return false
}

func pathContainsPrimary(path []*forest.Node, primary string) bool {
	for _, n := range path {
		if p, _, _ := uia.SplitControlID(n.ID); p == primary {
			return true
		}
	}
	return false
}

// siblingDistractor returns a plausible wrong pick: another leaf under the
// same parent (the adjacent gallery cell, the neighbouring menu item).
func siblingDistractor(n *forest.Node, pick func(n int) int) *forest.Node {
	if n.Parent == nil {
		return nil
	}
	var sibs []*forest.Node
	for _, c := range n.Parent.Children {
		if c != n && c.IsLeaf() {
			sibs = append(sibs, c)
		}
	}
	if len(sibs) == 0 {
		return nil
	}
	return sibs[pick(len(sibs))]
}

// inCoreTopology reports whether the node appears in the default core
// topology payload (depth-limited, large enumerations pruned); targets
// outside it require a further_query round first (§3.3).
func inCoreTopology(n *forest.Node) bool {
	if n.LargeEnum {
		return false
	}
	depth := len(n.PathFromRoot()) - 1
	opt := describe.CoreOptions()
	return opt.MaxDepth <= 0 || depth < opt.MaxDepth
}
