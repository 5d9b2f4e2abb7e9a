// Command qtrace inspects JSONL traces exported by qsim/qsweep -trace.
//
// Usage:
//
//	qtrace trace.jsonl                             # header + event counts
//	qtrace -explain "class=B period=3" trace.jsonl # explain one cell
//
// The -explain spec names one class/period cell of the period tables:
// classes by numeric ID, letter (A = first class in the trace header), or
// name; periods 1-based as the tables print them. The explanation breaks
// the cell's response time into admission wait vs execution, draws the
// held-queue depth over the period, lists plan changes, and draws a
// per-query lifetime Gantt. All analysis lives in internal/trace.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() { os.Exit(cli.Qtrace(os.Args[1:], os.Stdout, os.Stderr)) }
