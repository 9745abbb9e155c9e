// Package excel implements the simulated spreadsheet: a cell-grid model
// beneath a full ribbon UI built with appkit. It is the largest of the three
// case-study applications (paper §5.2: core topology ≈ 2K controls).
package excel

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/uia"
)

// GridRows and GridCols define the modeled sheet size. The UI exposes every
// cell as a DataItem control; a viewport of VisibleRows rows is shown at a
// time and the vertical scrollbar pans it.
const (
	GridRows    = 30
	GridCols    = 10
	VisibleRows = 15
)

// Cell is one spreadsheet cell.
type Cell struct {
	Value     string
	Format    string // number format ("General", "Percentage", ...)
	Fill      string
	FontColor string
	Bold      bool
}

// CondRule is a conditional-formatting rule.
type CondRule struct {
	Kind      string // "GreaterThan", "LessThan", "Between", ...
	Threshold float64
	Fill      string
	Range     string // "A1:C10"
}

// Sheet is the spreadsheet model.
type Sheet struct {
	cells map[string]*Cell

	// Selection is a rectangular range; both ends inclusive ("A1", "C10").
	SelFrom, SelTo string
	ActiveCell     string

	FrozenTopRow   bool
	FrozenFirstCol bool
	FilterOn       bool
	SortedBy       string // column letter of the last sort
	SortDesc       bool
	Theme          string
	Zoom           int

	CondRules []CondRule
	Charts    []string
	ColWidth  map[string]float64
	Saved     string

	// owner is an element of the application showing the sheet, whose undo
	// log records the selection (uia.Store); nil for a sheet without UI.
	owner *uia.Element
}

// NewSheet creates an empty sheet with A1 active.
func NewSheet() *Sheet {
	return &Sheet{
		cells:      make(map[string]*Cell),
		ActiveCell: "A1",
		SelFrom:    "A1",
		SelTo:      "A1",
		Theme:      "Office",
		Zoom:       100,
		ColWidth:   make(map[string]float64),
	}
}

// ColName returns the letter name of a 1-based column index (1 → "A").
func ColName(i int) string {
	name := ""
	for i > 0 {
		i--
		name = string(rune('A'+i%26)) + name
		i /= 26
	}
	return name
}

// Ref builds an "A1"-style reference from 1-based row and column.
func Ref(row, col int) string { return fmt.Sprintf("%s%d", ColName(col), row) }

// ParseRef splits an "A1"-style reference. ok is false for malformed refs or
// refs outside the grid.
func ParseRef(ref string) (row, col int, ok bool) {
	ref = strings.ToUpper(strings.TrimSpace(ref))
	i := 0
	for i < len(ref) && ref[i] >= 'A' && ref[i] <= 'Z' {
		col = col*26 + int(ref[i]-'A') + 1
		i++
	}
	if i == 0 || i == len(ref) {
		return 0, 0, false
	}
	n, err := strconv.Atoi(ref[i:])
	if err != nil || n < 1 || n > GridRows || col < 1 || col > GridCols {
		return 0, 0, false
	}
	return n, col, true
}

// ParseRange splits "A1:C10" (or a single ref) into corners.
func ParseRange(r string) (r1, c1, r2, c2 int, ok bool) {
	parts := strings.SplitN(r, ":", 2)
	r1, c1, ok = ParseRef(parts[0])
	if !ok {
		return
	}
	if len(parts) == 1 {
		return r1, c1, r1, c1, true
	}
	r2, c2, ok = ParseRef(parts[1])
	if !ok {
		return
	}
	if r2 < r1 {
		r1, r2 = r2, r1
	}
	if c2 < c1 {
		c1, c2 = c2, c1
	}
	return r1, c1, r2, c2, true
}

// Cell returns the cell at ref, creating it on first touch. Nil for invalid
// refs.
func (s *Sheet) Cell(ref string) *Cell {
	row, col, ok := ParseRef(ref)
	if !ok {
		return nil
	}
	key := Ref(row, col)
	c := s.cells[key]
	if c == nil {
		c = &Cell{Format: "General"}
		s.cells[key] = c
	}
	return c
}

// Value returns the cell's value ("" for untouched cells).
func (s *Sheet) Value(ref string) string {
	row, col, ok := ParseRef(ref)
	if !ok {
		return ""
	}
	if c := s.cells[Ref(row, col)]; c != nil {
		return c.Value
	}
	return ""
}

// SetValue writes a cell value.
func (s *Sheet) SetValue(ref, v string) {
	if c := s.Cell(ref); c != nil {
		c.Value = v
	}
}

// Select sets the selection range (and the active cell to its top-left).
func (s *Sheet) Select(from, to string) bool {
	r1, c1, r2, c2, ok := ParseRange(from + ":" + to)
	if !ok {
		return false
	}
	s.selectRefs(Ref(r1, c1), Ref(r2, c2))
	return true
}

// SelectRange accepts "A1:C10" or "B4".
func (s *Sheet) SelectRange(rng string) bool {
	r1, c1, r2, c2, ok := ParseRange(rng)
	if !ok {
		return false
	}
	s.selectRefs(Ref(r1, c1), Ref(r2, c2))
	return true
}

// selectRefs makes from:to the selection and from the active cell.
func (s *Sheet) selectRefs(from, to string) {
	uia.Store(s.owner, &s.SelFrom, from)
	uia.Store(s.owner, &s.SelTo, to)
	uia.Store(s.owner, &s.ActiveCell, from)
}

// SelectionRange returns the selection as "A1:C10" (or a single ref).
func (s *Sheet) SelectionRange() string {
	if s.SelFrom == s.SelTo {
		return s.SelFrom
	}
	return s.SelFrom + ":" + s.SelTo
}

// EachSelected runs fn over every cell in the selection.
func (s *Sheet) EachSelected(fn func(ref string, c *Cell)) int {
	r1, c1, r2, c2, ok := ParseRange(s.SelectionRange())
	if !ok {
		return 0
	}
	n := 0
	for r := r1; r <= r2; r++ {
		for c := c1; c <= c2; c++ {
			ref := Ref(r, c)
			fn(ref, s.Cell(ref))
			n++
		}
	}
	return n
}

// Numeric parses a cell value as a float, reporting success.
func Numeric(v string) (float64, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
	return f, err == nil
}

// AddCondRule records a conditional-formatting rule over the given range and
// applies it: matching cells (and only matching cells) receive the fill.
// Like real Excel, the rule is evaluated over every cell of the range —
// including blank ones, whose non-numeric value simply never matches
// GreaterThan (the subtlety behind one of the paper's policy failures).
func (s *Sheet) AddCondRule(rule CondRule) {
	s.CondRules = append(s.CondRules, rule)
	r1, c1, r2, c2, ok := ParseRange(rule.Range)
	if !ok {
		return
	}
	for r := r1; r <= r2; r++ {
		for c := c1; c <= c2; c++ {
			cell := s.Cell(Ref(r, c))
			v, isNum := Numeric(cell.Value)
			match := false
			switch rule.Kind {
			case "GreaterThan":
				match = isNum && v > rule.Threshold
			case "LessThan":
				match = isNum && v < rule.Threshold
			case "EqualTo":
				match = isNum && v == rule.Threshold
			}
			if match {
				cell.Fill = rule.Fill
			}
		}
	}
}

// SortByColumn reorders the data rows of the used range by the given column
// letter. Rows are compared numerically when both values parse, otherwise
// lexically; the first row is treated as a header and left in place when
// hasHeader is true.
func (s *Sheet) SortByColumn(col string, desc, hasHeader bool) {
	_, cIdx, ok := ParseRef(col + "1")
	if !ok {
		return
	}
	lastRow := s.UsedRows()
	first := 1
	if hasHeader {
		first = 2
	}
	if lastRow < first {
		return
	}
	rows := make([]int, 0, lastRow-first+1)
	for r := first; r <= lastRow; r++ {
		rows = append(rows, r)
	}
	key := func(r int) string { return s.Value(Ref(r, cIdx)) }
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := key(rows[i]), key(rows[j])
		fa, oka := Numeric(a)
		fb, okb := Numeric(b)
		var cmp int
		switch {
		case oka && okb && fa < fb:
			cmp = -1
		case oka && okb && fa > fb:
			cmp = 1
		case !(oka && okb) && a < b:
			cmp = -1
		case !(oka && okb) && a > b:
			cmp = 1
		}
		if desc {
			return cmp > 0
		}
		return cmp < 0
	})
	// Materialize the permutation.
	snapshot := make(map[int][]*Cell, len(rows))
	for _, r := range rows {
		rowCells := make([]*Cell, GridCols)
		for c := 1; c <= GridCols; c++ {
			if cc := s.cells[Ref(r, c)]; cc != nil {
				cp := *cc
				rowCells[c-1] = &cp
			}
		}
		snapshot[r] = rowCells
	}
	for i, src := range rows {
		dst := first + i
		for c := 1; c <= GridCols; c++ {
			key := Ref(dst, c)
			if cc := snapshot[src][c-1]; cc != nil {
				cp := *cc
				s.cells[key] = &cp
			} else {
				delete(s.cells, key)
			}
		}
	}
	s.SortedBy, s.SortDesc = col, desc
}

// UsedRows returns the last row containing any value.
func (s *Sheet) UsedRows() int {
	last := 0
	for ref, c := range s.cells {
		if c.Value == "" {
			continue
		}
		r, _, ok := ParseRef(ref)
		if ok && r > last {
			last = r
		}
	}
	return last
}
