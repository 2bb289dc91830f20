// Command fixture is the non-test caller of package lib.
package main

import (
	"fmt"

	"fixture/lib"
)

func main() {
	s := lib.New(2)
	fmt.Println(s.Area(), s, lib.Stale())
}
