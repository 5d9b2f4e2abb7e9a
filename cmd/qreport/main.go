// Command qreport turns decision audit logs exported by qsim/qsweep
// -decisions into operator reports.
//
// Usage:
//
//	qreport decisions.jsonl                          # run summary + SLO attainment
//	qreport -timeline decisions.jsonl                # per-tick plan timeline
//	qreport -why "class=B tick=3-5" decisions.jsonl  # why lines for one class
//	qreport -attr -trace t.jsonl decisions.jsonl     # violation attribution
//	qreport -metrics m.txt decisions.jsonl           # + metrics cross-check
//
// Classes may be named by numeric ID, letter (A = first class in the log
// header), or name; ticks are 1-based. -window N-M restricts -timeline
// and -why to a tick range. All analysis lives in internal/decisionlog
// and streams its inputs, so memory stays constant regardless of log or
// trace size.
package main

import (
	"os"

	"repro/internal/cli"
)

func main() { os.Exit(cli.Qreport(os.Args[1:], os.Stdout, os.Stderr)) }
