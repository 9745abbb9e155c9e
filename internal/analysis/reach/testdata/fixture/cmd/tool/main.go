// Command tool is the fixture's program root.
package main

import "fixture/lib"

func main() {
	lib.Used()
}
