// Package word implements the simulated word processor: a paragraph-based
// document model beneath a full ribbon UI built with appkit. It is one of
// the three case-study applications of the evaluation (paper §5.1).
package word

import (
	"strings"

	"repro/internal/uia"
)

// Para is one paragraph with its character- and paragraph-level formatting.
type Para struct {
	Text string

	Bold, Italic, Underline   bool
	Strikethrough             bool
	Subscript, Superscript    bool
	FontColor, UnderlineColor string
	Highlight                 string
	Font                      string
	Size                      float64
	Alignment                 string // "Left", "Center", "Right", "Justify"
	LineSpacing               float64
	Style                     string
	ListKind                  string // "", "Bullets", "Numbering"
}

// TableSpec records an inserted table.
type TableSpec struct {
	Rows, Cols int
}

// Document is the Word document model. All ribbon interaction ultimately
// mutates it, and task verification reads it back.
type Document struct {
	Paras []*Para

	// Selection is a 1-based inclusive paragraph range; 0,0 means none.
	SelStart, SelEnd int

	PageColor   string
	Orientation string // "Portrait" or "Landscape"
	Theme       string
	Margins     string
	PaperSize   string
	Columns     int

	Header, Footer string
	PageNumbers    string // "" = none, otherwise the gallery entry
	Watermark      string
	PageBorder     string

	TrackChanges bool
	Saved        string // last Save As target
	Language     string

	Inserted []string // pictures, shapes, icons, charts, symbols
	tables   []TableSpec

	text *uia.SimpleText // UI view; kept in sync by rebuildText
	// owner is the document's UI element, whose undo log records the
	// selection (uia.Store); nil until the application binds it.
	owner *uia.Element
}

// NewDocument creates a document from paragraph texts with default
// formatting.
func NewDocument(paras ...string) *Document {
	d := &Document{text: &uia.SimpleText{}}
	d.text.OnSelect = func(_ *uia.Element, startLine, endLine int) {
		// Paragraph i occupies line 2i-1 (paragraphs are separated by
		// blank lines so that line- and paragraph-selection both work).
		d.SelectParas((startLine+1)/2, (endLine+1)/2)
	}
	d.reset(paras)
	return d
}

// reset returns the document to NewDocument(paras...) in place, keeping
// its Text pattern provider, which the UI holds.
func (d *Document) reset(paras []string) {
	*d = Document{
		Orientation: "Portrait",
		Theme:       "Office",
		Margins:     "Normal",
		PaperSize:   "Letter",
		Columns:     1,
		Language:    "English (United States)",
		text:        d.text,
		owner:       d.owner,
	}
	for _, t := range paras {
		d.Paras = append(d.Paras, &Para{
			Text: t, Font: "Calibri", Size: 11,
			Alignment: "Left", LineSpacing: 1.08, Style: "Normal",
			FontColor: "Automatic", UnderlineColor: "Automatic",
		})
	}
	d.text.ClearSelection(d.owner)
	d.rebuildText()
}

// TextPattern exposes the document body as a uia Text pattern.
func (d *Document) TextPattern() *uia.SimpleText { return d.text }

// rebuildText regenerates the UI text view from the paragraph model.
func (d *Document) rebuildText() {
	lines := make([]string, 0, len(d.Paras)*2)
	for i, p := range d.Paras {
		if i > 0 {
			lines = append(lines, "")
		}
		lines = append(lines, p.Text)
	}
	d.text.Lines = lines
}

// SelectParas sets the selected paragraph range directly (used by tests and
// by the document's Text pattern hook).
func (d *Document) SelectParas(start, end int) {
	uia.Store(d.owner, &d.SelStart, start)
	uia.Store(d.owner, &d.SelEnd, end)
}

// Selected returns the selected paragraphs (empty if none).
func (d *Document) Selected() []*Para {
	if d.SelStart < 1 || d.SelEnd > len(d.Paras) || d.SelStart > d.SelEnd {
		return nil
	}
	return d.Paras[d.SelStart-1 : d.SelEnd]
}

// ApplyToSelection runs fn on every selected paragraph and reports how many
// paragraphs were touched. With no selection it is a no-op returning 0 —
// formatting at a bare cursor changes nothing, which is exactly the failure
// a planner that forgets to select first will hit.
func (d *Document) ApplyToSelection(fn func(p *Para)) int {
	sel := d.Selected()
	for _, p := range sel {
		fn(p)
	}
	return len(sel)
}

// AllSelectedSatisfy reports whether the selection is non-empty and fn holds
// for every selected paragraph.
func (d *Document) AllSelectedSatisfy(fn func(p *Para) bool) bool {
	sel := d.Selected()
	if len(sel) == 0 {
		return false
	}
	for _, p := range sel {
		if !fn(p) {
			return false
		}
	}
	return true
}

// ReplaceAll replaces every occurrence of find with repl across the
// document, returning the number of replacements.
func (d *Document) ReplaceAll(find, repl string) int {
	if find == "" {
		return 0
	}
	n := 0
	for _, p := range d.Paras {
		c := strings.Count(p.Text, find)
		if c > 0 {
			p.Text = strings.ReplaceAll(p.Text, find, repl)
			n += c
		}
	}
	if n > 0 {
		d.rebuildText()
	}
	return n
}

// CountOccurrences counts occurrences of s across all paragraphs.
func (d *Document) CountOccurrences(s string) int {
	n := 0
	for _, p := range d.Paras {
		n += strings.Count(p.Text, s)
	}
	return n
}

// Tables inserted into the document.
func (d *Document) InsertTable(rows, cols int) { d.tables = append(d.tables, TableSpec{rows, cols}) }

// LastTable returns the most recently inserted table and true, or false.
func (d *Document) LastTable() (TableSpec, bool) {
	if len(d.tables) == 0 {
		return TableSpec{}, false
	}
	return d.tables[len(d.tables)-1], true
}
