// Word scenario: a state declaration (select_paragraphs) combined with
// access declarations through two different entry paths into the shared
// color picker — the path-dependent-semantics example of the paper — plus a
// find-and-replace batch.
//
//	go run ./examples/doc-batch
package main

import (
	"fmt"
	"log"
	"strings"

	"repro/dmi"
)

func main() {
	model, err := dmi.Model(dmi.NewWord().App)
	if err != nil {
		log.Fatal(err)
	}

	app := dmi.NewWord(
		"Prototype alpha summary.",
		"The alpha build underperformed in alpha testing.",
		"Next steps and owners.",
	)
	s := dmi.NewSession(app.App, model, dmi.ExecOptions{})

	// State declaration: select paragraphs 1–2 directly, no drag loop.
	lm := s.CaptureLabels()
	doc := lm.Find("Document", dmi.DocumentControl)
	sel := dmi.Declaration{Op: dmi.OpSelectParagraphs, Labels: []string{doc}, Start: 1, End: 2}
	if serr := s.Declare(lm, sel); serr != nil {
		log.Fatal(serr)
	}

	// Access through the Font Color path: the picker's Blue cell means
	// "font color" here…
	blue := stdCell(model, "Blue")
	res := s.Visit([]dmi.Command{
		dmi.AccessRef(model.ID(blue), via(model, blue, "btnFontColor")...),
	})
	if !res.OK() {
		log.Fatal(res.Err)
	}
	// …and "underline color" when entered through the Underline path.
	app.Doc.SelectParas(3, 3)
	res = s.Visit([]dmi.Command{
		dmi.AccessRef(model.ID(blue), via(model, blue, "btnUnderlineColor")...),
	})
	if !res.OK() {
		log.Fatal(res.Err)
	}
	fmt.Printf("para1 font color      = %q\n", app.Doc.Paras[0].FontColor)
	fmt.Printf("para3 underline color = %q (underlined=%v)\n",
		app.Doc.Paras[2].UnderlineColor, app.Doc.Paras[2].Underline)

	// Replace-all as one visit batch into the Find and Replace dialog.
	res = s.Visit([]dmi.Command{
		dmi.Input(gid(model, "edFindWhat|"), "alpha"),
		dmi.Input(gid(model, "edReplaceWith|"), "v0.9"),
		dmi.Access(gid(model, "btnReplaceAll|")),
	})
	if !res.OK() {
		log.Fatal(res.Err)
	}
	fmt.Printf("after replace-all: %q\n", app.Doc.Paras[1].Text)
}

func stdCell(m *dmi.TopologyModel, name string) *dmi.ForestNode {
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
		log.Fatalf("cell %q not modeled", name)
	}
	return hit
}

func via(m *dmi.TopologyModel, n *dmi.ForestNode, opener string) []int {
	tree := m.TreeOf(n)
	for _, r := range m.RefsTo(tree) {
		for _, anc := range r.PathFromRoot() {
			if strings.HasPrefix(anc.ID, opener+"|") {
				return []int{m.ID(r)}
			}
		}
	}
	log.Fatalf("no entry reference via %q", opener)
	return nil
}

func gid(m *dmi.TopologyModel, prefix string) int {
	var hit *dmi.ForestNode
	m.Forest.Main.Walk(func(n *dmi.ForestNode) bool {
		if hit == nil && strings.HasPrefix(n.ID, prefix) {
			hit = n
		}
		return true
	})
	if hit == nil {
		log.Fatalf("control %q not modeled", prefix)
	}
	return m.ID(hit)
}
