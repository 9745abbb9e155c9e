// Package lib holds one function of each kind the check must tell apart.
package lib

// Used is called from the program's main.
func Used() {}

// Shape is implemented by Square.
type Shape interface{ Area() int }

// Square is never named by a program; its method is reached only through
// the Shape interface.
type Square struct{}

// Area implements Shape.
func (Square) Area() int { return 1 }

// table's initializer runs whenever the package is linked.
var table = map[string]func(){"init": fromInit}

// fromInit is reached only from the package-level initializer above.
func fromInit() {}

// FromBench is reached only from the root-only module.
func FromBench() {}

// Helper is kept for the package's tests.
//
//dmi:testonly the package's tests build fixtures with it
func Helper() {}

// Planted is reached by nothing: the check must report it, and only it.
func Planted() {}
