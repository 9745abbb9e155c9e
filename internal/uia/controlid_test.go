package uia_test

import (
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
				anc := e.Ancestors()
				names := make([]string, len(anc))
				for i, p := range anc {
					names[len(anc)-1-i] = p.PrimaryID()
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
