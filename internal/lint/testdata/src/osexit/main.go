// Seeded violations for the osexit check: os.Exit belongs only in func
// main of a package main; everywhere else a function returns its exit
// code.
package main

import (
	"fmt"
	"os"
	xos "os"
)

func main() {
	defer fmt.Println("done")
	if len(os.Args) > 1 {
		os.Exit(run(os.Args[1:]))
	}
	os.Exit(0)
}

func run(args []string) int {
	if len(args) > 2 {
		os.Exit(2) // want "os.Exit outside func main"
	}
	exit := os.Exit // want "os.Exit outside func main"
	_ = exit
	return 0
}

type command struct{}

// A method named main is not the program's entry point.
func (command) main() {
	xos.Exit(1) // want "os.Exit outside func main"
}

var quit = func() { os.Exit(3) } // want "os.Exit outside func main"

// Exit on another package is not os.Exit.
type process struct{}

func (process) Exit(code int) {}

func stop(p process) { p.Exit(1) }
