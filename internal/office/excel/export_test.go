package excel

import "repro/internal/uia"

// ViewTop returns the first visible data row.
func (x *App) ViewTop() int { return x.viewTop }

// DataItem returns the DataItem element for a cell reference, or nil when
// the reference is malformed or outside the grid. It accepts exactly the
// references Sheet.Cell accepts.
func (x *App) DataItem(ref string) *uia.Element {
	r, c, ok := ParseRef(ref)
	if !ok {
		return nil
	}
	return x.cells[r][c]
}
