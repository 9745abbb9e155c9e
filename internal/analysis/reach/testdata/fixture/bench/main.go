// Command bench stands in for a root-only module: every function it has is
// a root, so what it references is reached.
package main

import "fixture/lib"

func main() {}

func unused() { lib.FromBench() }
