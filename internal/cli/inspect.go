package cli

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"

	"repro/internal/decisionlog"
	"repro/internal/trace"
)

// Qtrace inspects a JSONL trace exported by qsim/qsweep -trace: its
// summary, or with -explain one class/period cell.
func Qtrace(args []string, stdout, stderr io.Writer) int {
	view, err := parseQtrace(args, stderr)
	if err == nil {
		err = view(stdout)
	}
	return exitCode(stderr, err)
}

// parseQtrace parses the command line into the view it asks for.
func parseQtrace(args []string, stderr io.Writer) (func(io.Writer) error, error) {
	fs := newFlagSet("qtrace", stderr)
	explain := fs.String("explain", "", `explain one cell, e.g. "class=B period=3"`)
	if _, err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		return nil, usagef(`usage: qtrace [-explain "class=X period=K"] trace.jsonl`)
	}
	return func(stdout io.Writer) error {
		// Both views stream the trace — memory stays bounded by the
		// answer (the summary tallies, or one class's events), not the
		// trace size. A view that fails prints nothing.
		out := bufio.NewWriter(stdout)
		err := withFile(fs.Arg(0), func(r io.Reader) error {
			if *explain == "" {
				return trace.SummarizeJSONL(out, r)
			}
			ex, err := trace.ExplainJSONL(r, *explain)
			if err == nil {
				ex.Render(out)
			}
			return err
		})
		if spec := (*trace.SpecError)(nil); errors.As(err, &spec) {
			return usagef("%w", err)
		} else if err != nil {
			return err
		}
		return out.Flush()
	}, nil
}

// Qreport turns a decision audit log exported by qsim/qsweep -decisions
// into operator reports.
func Qreport(args []string, stdout, stderr io.Writer) int {
	report, err := parseQreport(args, stderr)
	if err == nil {
		out := bufio.NewWriter(stdout)
		err = report(out)
		out.Flush()
	}
	return exitCode(stderr, err)
}

// parseQreport parses the command line into the report it asks for.
func parseQreport(args []string, stderr io.Writer) (func(io.Writer) error, error) {
	fs := newFlagSet("qreport", stderr)
	timeline := fs.Bool("timeline", false, "print the per-tick plan timeline")
	why := fs.String("why", "", `explain one class's decisions, e.g. "class=B tick=3-5"`)
	attr := fs.Bool("attr", false, "attribute goal misses (requires -trace)")
	tracePath := fs.String("trace", "", "trace JSONL export for -attr")
	metricsPath := fs.String("metrics", "", "metrics exposition to cross-check against")
	window := fs.String("window", "", `tick window for -timeline/-why, e.g. "3-5"`)
	if _, err := parseFlags(fs, args); err != nil {
		return nil, err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: qreport [flags] decisions.jsonl")
		fs.PrintDefaults()
		return nil, &exitError{code: 2}
	}
	if *attr && *tracePath == "" {
		return nil, usagef("qreport: -attr requires -trace trace.jsonl")
	}
	win, err := decisionlog.ParseTickRange(*window)
	if err != nil {
		return nil, usagef("qreport: %w", err)
	}
	return func(out io.Writer) error {
		err := withFile(fs.Arg(0), func(r io.Reader) error {
			switch {
			case *why != "":
				return decisionlog.Why(out, r, *why, win)
			case *timeline:
				return decisionlog.Timeline(out, r, win)
			case *attr:
				return withFile(*tracePath, func(tr io.Reader) error {
					rows, meta, err := decisionlog.Attribute(r, tr)
					if err == nil {
						decisionlog.RenderAttribution(out, meta, rows)
					}
					return err
				})
			}
			return decisionlog.Summarize(out, r)
		})
		// Spec mistakes (bad class, tick window past the end of the log)
		// are usage errors, not log problems: exit 2, like qtrace.
		if spec := (*decisionlog.SpecError)(nil); errors.As(err, &spec) {
			return usagef("qreport: %w", err)
		}
		if err == nil && *metricsPath != "" {
			fmt.Fprintln(out)
			err = withFile(*metricsPath, func(r io.Reader) error { return decisionlog.MetricsCrossCheck(out, r) })
		}
		if err != nil {
			return fmt.Errorf("qreport: %w", err)
		}
		return nil
	}, nil
}

// withFile opens path with a large read buffer and runs fn.
func withFile(path string, fn func(io.Reader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return fn(bufio.NewReaderSize(f, 1<<20))
}
