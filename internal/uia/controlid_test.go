package uia_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/agent"
	"repro/internal/uia"
)

func TestSplitControlID(t *testing.T) {
	cases := []struct{ id, primary, ctype, ancPath string }{
		{"btnSave|Button|Home/Font", "btnSave", "Button", "Home/Font"},
		{"btnBold|Button|a/b", "btnBold", "Button", "a/b"},
		{"btnSave|Button|", "btnSave", "Button", ""},
		{"btnSave|Button", "btnSave", "Button", ""},
		{"btnSave", "btnSave", "", ""},
		{"plain", "plain", "", ""},
		{"|Button|x", "", "Button", "x"},
		{"", "", "", ""},
		{"a|b|c|d", "a", "b", "c|d"}, // extra separators stay in the ancestor path
	}
	for _, c := range cases {
		p, ct, anc := uia.SplitControlID(c.id)
		if p != c.primary || ct != c.ctype || anc != c.ancPath {
			t.Errorf("SplitControlID(%q) = (%q, %q, %q), want (%q, %q, %q)",
				c.id, p, ct, anc, c.primary, c.ctype, c.ancPath)
		}
	}
	if n := testing.AllocsPerRun(10, func() { uia.SplitControlID("btnSave|Button|Home/Font") }); n != 0 {
		t.Errorf("SplitControlID allocates %.0f/op, want 0", n)
	}
}

// TestControlIDGrammar: the parser reads back what the writer wrote. For
// every element of every catalog app — main window and every popup
// template — splitting ControlID yields the element's PrimaryID, its control
// type name, and its ancestors' PrimaryIDs from the root down, joined by
// "/". Every primary-id rule (automation id, name, "[Unnamed]") must occur.
func TestControlIDGrammar(t *testing.T) {
	rules := map[string]int{}
	for _, name := range agent.AppNames() {
		a := agent.Factories()[name]()
		for _, win := range append([]*uia.Element{a.Win}, a.AllPopupWindows()...) {
			win.Walk(func(e *uia.Element) bool {
				switch {
				case e.AutomationID() != "":
					rules["automation id"]++
				case e.Name() != "":
					rules["name"]++
				default:
					rules["[Unnamed]"]++
				}
				var names []string
				for p := e.Parent(); p != nil; p = p.Parent() {
					names = append([]string{p.PrimaryID()}, names...)
				}
				p, ct, path := uia.SplitControlID(e.ControlID())
				if want := strings.Join(names, "/"); p != e.PrimaryID() || ct != e.Type().String() || path != want {
					t.Errorf("%s: SplitControlID(%q) = (%q, %q, %q), want (%q, %q, %q)",
						name, e.ControlID(), p, ct, path, e.PrimaryID(), e.Type().String(), want)
				}
				return true
			})
		}
	}
	for _, rule := range []string{"automation id", "name", "[Unnamed]"} {
		if rules[rule] == 0 {
			t.Errorf("no catalog element takes its primary id from the %s rule", rule)
		}
	}
}

// TestControlIDCachesFollowMutations: ControlID caches each element's id and
// the ancestor path its children's ids extend. Over seeded random histories
// on a catalog app — renames of elements whose primary id is their name,
// re-parenting, removals, with ids read in between so that stale caches
// exist — every element's id must equal one built from scratch by walking
// its ancestors.
func TestControlIDCachesFollowMutations(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := agent.Factories()["Settings"]()
		var all, unnamedID []*uia.Element
		for _, win := range append([]*uia.Element{a.Win}, a.AllPopupWindows()...) {
			win.Walk(func(e *uia.Element) bool {
				all = append(all, e)
				if e.AutomationID() == "" {
					unnamedID = append(unnamedID, e)
				}
				return true
			})
		}
		pick := func(list []*uia.Element) *uia.Element { return list[rng.Intn(len(list))] }
		for _, e := range all {
			e.ControlID()
		}
		for step := 0; step < 60; step++ {
			switch rng.Intn(3) {
			case 0:
				name := ""
				if rng.Intn(4) > 0 {
					name = fmt.Sprintf("n%d", rng.Intn(50))
				}
				pick(unnamedID).SetName(name)
			case 1:
				child, parent := pick(all), pick(all)
				if !parent.IsDescendantOf(child) {
					parent.AddChild(child)
				}
			case 2:
				if child := pick(all); child.Parent() != nil {
					child.Parent().RemoveChild(child)
				}
			}
			for i := 0; i < 8; i++ {
				pick(all).ControlID()
			}
		}
		for _, e := range all {
			if got, want := e.ControlID(), referenceControlID(e); got != want {
				t.Fatalf("seed %d: ControlID = %q, want %q", seed, got, want)
			}
		}
	}
}

// referenceControlID builds the id from scratch: primary id, type name,
// and the ancestors' primary ids from the root down, joined by "/".
func referenceControlID(e *uia.Element) string {
	var names []string
	for p := e.Parent(); p != nil; p = p.Parent() {
		names = append([]string{p.PrimaryID()}, names...)
	}
	return e.PrimaryID() + "|" + e.Type().String() + "|" + strings.Join(names, "/")
}
