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

// Center returns the midpoint of the rectangle.
func (r Rect) Center() (x, y int) { return r.X + r.W/2, r.Y + r.H/2 }

// Empty reports whether the rectangle has zero area.
func (r Rect) Empty() bool { return r.W <= 0 || r.H <= 0 }
