// Spreadsheet scenario: structured observation (get_texts, passive and
// active) plus a conditional-formatting rule applied through one visit call
// — the Excel workload family of the paper's evaluation.
//
//	go run ./examples/sheet-report
package main

import (
	"fmt"
	"log"

	"repro/dmi"
)

func main() {
	model, err := dmi.Model(dmi.NewExcel().App)
	if err != nil {
		log.Fatal(err)
	}

	app := dmi.NewExcel(
		[]string{"Region", "Sales", "Cost"},
		[]string{"North", "120", "80"},
		[]string{"South", "95", "60"},
		[]string{"East", "143", "97"},
		[]string{"West", "88", "71"},
		[]string{"Central", "131", "90"},
	)
	// A value wider than its cell: pixels truncate it, patterns don't.
	app.Sheet.SetValue("E2", "Quarterly total including services revenue")
	s := dmi.NewSession(app.App, model, dmi.ExecOptions{})

	// Passive observation (§3.5): before each LLM call, every on-screen
	// DataItem is read and truncated; empty cells are coalesced.
	lm := s.CaptureLabels()
	fmt.Println("passive get_texts payload (first lines):")
	passive := s.PassiveTexts(lm, 16)
	for i, line := range splitLines(passive, 6) {
		fmt.Printf("  %d│ %s\n", i+1, line)
	}

	// Active observation: the full content of one cell, regardless of how
	// it renders.
	label := lm.Find("E2", dmi.DataItemControl)
	texts, serr := s.GetTexts(lm, []string{label})
	if serr != nil {
		log.Fatal(serr)
	}
	fmt.Printf("active get_texts(E2) → %q\n\n", texts[label])

	// One visit call: select B2:B6 through the Name Box (access-and-input
	// + commit shortcut), then fill in the Greater Than dialog and accept.
	gt := model.FindLeafByName("dlgGreaterThanOK")
	if gt == nil {
		// resolve by automation id prefix instead
		gt = findByGID(model, "dlgGreaterThanOK|")
	}
	nameBox := findByGID(model, "edNameBox|")
	threshold := findByGID(model, "edGTValue|")
	res := s.Visit([]dmi.Command{
		dmi.Input(model.ID(nameBox), "B2:B6"),
		dmi.Shortcut("ENTER"),
		dmi.Input(model.ID(threshold), "100"),
		dmi.Access(model.ID(gt)),
	})
	if !res.OK() {
		log.Fatalf("visit failed: %v", res.Err)
	}
	fmt.Println("conditional formatting applied in one visit call:")
	for _, ref := range []string{"B2", "B3", "B4", "B5", "B6"} {
		c := app.Sheet.Cell(ref)
		mark := " "
		if c.Fill != "" {
			mark = "█"
		}
		fmt.Printf("  %s %s = %-4s fill=%q\n", mark, ref, c.Value, c.Fill)
	}
}

func findByGID(m *dmi.TopologyModel, prefix string) *dmi.ForestNode {
	var hit *dmi.ForestNode
	scan := func(tree *dmi.ForestNode) {
		tree.Walk(func(n *dmi.ForestNode) bool {
			if hit == nil && len(n.ID) >= len(prefix) && n.ID[:len(prefix)] == prefix {
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
		log.Fatalf("control %q not modeled", prefix)
	}
	return hit
}

func splitLines(s string, max int) []string {
	var out []string
	cur := ""
	for _, r := range s {
		if r == '\n' {
			out = append(out, cur)
			cur = ""
			if len(out) == max {
				return out
			}
			continue
		}
		cur += string(r)
	}
	if cur != "" {
		out = append(out, cur)
	}
	return out
}
