// Package api is the fixture's public API root.
package api

import "fixture/lib"

// Area is exported API, so a root.
func Area(s lib.Shape) int { return s.Area() }
