package uia

// Depth returns the maximum depth of the subtree rooted at e (a leaf has
// depth 1).
func (e *Element) Depth() int {
	max := 0
	for _, c := range e.children {
		if d := c.Depth(); d > max {
			max = d
		}
	}
	return max + 1
}
