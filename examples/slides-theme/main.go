// Table 1, Task 1 — "make the background blue on all slides" — executed
// both ways: the imperative GUI click chain and the declarative visit call.
//
//	go run ./examples/slides-theme
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/dmi"
)

func main() {
	model, err := dmi.Model(dmi.NewPowerPoint(12).App)
	if err != nil {
		log.Fatal(err)
	}

	// Imperative: the caller must know and execute the whole chain
	// click("Design") → click("Format Background") → click("Solid fill")
	// → click("Fill Color") → click("Blue") → click("Apply to All").
	app := dmi.NewPowerPoint(12)
	clicks := 0
	click := func(name string) {
		el := app.Win.FindByName(name)
		if el == nil {
			for _, w := range app.Desk.Windows() {
				if el = w.FindByName(name); el != nil {
					break
				}
			}
		}
		if el == nil {
			log.Fatalf("imperative: %q not visible — navigation state wrong", name)
		}
		if err := app.Desk.Click(el); err != nil {
			log.Fatal(err)
		}
		clicks++
	}
	click("Design")
	click("Format Background")
	click("Solid fill")
	click("Fill Color")
	click("Blue")
	click("Apply to All")
	fmt.Printf("imperative GUI: %d hand-sequenced clicks; all blue: %v\n",
		clicks, app.Deck.AllBackgrounds("Blue"))

	// Declarative: visit(["Blue", "Apply to All"]) — the caller names the
	// outcomes; the executor owns navigation and window management.
	app2 := dmi.NewPowerPoint(12)
	s := dmi.NewSession(app2.App, model, dmi.ExecOptions{})
	blue := pickerCell(model, "Blue")
	applyAll := model.FindLeafByName("Apply to All")
	ref := entryVia(model, blue, "btnFillColor")
	res := s.Visit([]dmi.Command{
		dmi.AccessRef(model.ID(blue), ref...),
		dmi.Access(model.ID(applyAll)),
	})
	if !res.OK() {
		log.Fatalf("visit failed: %v", res.Err)
	}
	fmt.Printf("declarative DMI: 1 visit call (2 commands); all blue: %v\n",
		app2.Deck.AllBackgrounds("Blue"))
}

// pickerCell finds the shared color picker's standard-colors cell: "Blue"
// is a generic name, so the container disambiguates (paper §3.3).
func pickerCell(m *dmi.TopologyModel, name string) *dmi.ForestNode {
	var hit *dmi.ForestNode
	scan := func(tree *dmi.ForestNode) {
		tree.Walk(func(n *dmi.ForestNode) bool {
			if hit == nil && n.IsLeaf() && n.Name == name &&
				strings.Contains(n.ID, "clrPickerStd") {
				hit = n
			}
			return true
		})
	}
	scan(m.Forest.Main)
	for _, id := range m.Forest.SharedOrder {
		scan(m.Forest.Shared[id])
	}
	if hit == nil {
		log.Fatalf("picker cell %q not modeled", name)
	}
	return hit
}

// entryVia picks the entry reference routing through the named opener —
// the same cells mean "fill color" here and "font color" elsewhere.
func entryVia(m *dmi.TopologyModel, n *dmi.ForestNode, opener string) []int {
	tree := m.TreeOf(n)
	if tree == "" {
		return nil
	}
	for _, r := range m.RefsTo(tree) {
		for _, anc := range r.PathFromRoot() {
			if strings.HasPrefix(anc.ID, opener+"|") {
				return []int{m.ID(r)}
			}
		}
	}
	refs := m.RefsTo(tree)
	if len(refs) > 0 {
		return []int{m.ID(refs[0])}
	}
	return nil
}
