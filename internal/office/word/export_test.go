package word

import "strings"

// Body returns the paragraph texts joined with blank lines.
func (d *Document) Body() string {
	var parts []string
	for _, p := range d.Paras {
		parts = append(parts, p.Text)
	}
	return strings.Join(parts, "\n\n")
}
