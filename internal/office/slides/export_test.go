package slides

// SelectOnly selects exactly the given 0-based slide index and makes it
// current.
func (d *Deck) SelectOnly(i int) {
	if i < 0 || i >= len(d.Slides) {
		return
	}
	d.Select(map[int]bool{i: true}, i)
}
