// Package cli holds the four command-line front ends — qsim, qsweep,
// qtrace and qreport — as functions from arguments and output streams
// to an exit code: 0 ok, 1 I/O or run failure, 2 bad input, 3 the
// simulation crashed mid-run. Returning the code instead of exiting lets
// every deferred cleanup run, and lets tests run the commands in process.
package cli

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/fault"
	"repro/internal/prof"
	"repro/internal/trace"
)

// exitError is an error with its exit code; one without an error exits
// silently.
type exitError struct {
	code int
	err  error
}

func (e *exitError) Error() string {
	if e.err == nil {
		return fmt.Sprintf("exit status %d", e.code)
	}
	return e.err.Error()
}
func (e *exitError) Unwrap() error { return e.err }

// usagef reports bad input: exit 2.
func usagef(format string, args ...any) error {
	return &exitError{2, fmt.Errorf(format, args...)}
}

// exitCode prints err, if it has a message, and returns its exit code:
// 0 for nil, 1 unless err carries another.
func exitCode(stderr io.Writer, err error) int {
	if err == nil {
		return 0
	}
	e := &exitError{1, err}
	errors.As(err, &e)
	if e.err != nil {
		fmt.Fprintln(stderr, err)
	}
	return e.code
}

func newFlagSet(name string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

// parseFlags parses args into fs, which prints its own message and usage
// for a bad flag (exit 2) and for -h or -help (exit 0). It returns the
// names of the flags args set.
func parseFlags(fs *flag.FlagSet, args []string) (map[string]bool, error) {
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil, &exitError{code: 0}
	} else if err != nil {
		return nil, &exitError{code: 2}
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	return set, nil
}

// parseFile opens path and parses it: a file that cannot be opened is an
// I/O error, one that does not parse or validate is bad input.
func parseFile[T any](path string, parse func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := parse(f)
	if err != nil {
		return v, usagef("%w", err)
	}
	return v, nil
}

// runFlags are the flags qsim and qsweep share: they shape every mixed
// run, its exports and the invocation's profile.
type runFlags struct {
	seed                                            uint64
	seedSet, mitigate                               bool // seedSet: -seed beats a preset's seed
	backends, parallel, checkpointEvery             int
	faultsFile, checkpointDir, pprofMode, pprofFile string
	trace, metrics, decisions                       string
	faults                                          *fault.Plan
}

// loadFaults reads the -faults plan, if any.
func (f *runFlags) loadFaults() (err error) {
	if f.faultsFile != "" {
		var plan fault.Plan
		plan, err = parseFile(f.faultsFile, fault.ParseSpec)
		f.faults = &plan
	}
	return err
}

// build lays the command line over a preset: the seed when given, the
// fault plan, the roster, the mitigation stack and checkpointing into
// checkpointDir. A config Validate rejects is bad input. The export
// writers join when the run starts.
func (f *runFlags) build(cfg experiment.MixedConfig, checkpointDir string) (experiment.MixedConfig, error) {
	if f.seedSet {
		cfg.Seed = f.seed
	}
	cfg.Faults = f.faults
	if f.backends > 1 {
		cfg.Backends = backend.DefaultSpecs(f.backends)
	}
	if f.mitigate {
		cfg = cfg.Mitigated()
	}
	cfg.CheckpointEvery, cfg.CheckpointDir = f.checkpointEvery, checkpointDir
	if err := cfg.Validate(); err != nil {
		return cfg, usagef("%w", err)
	}
	return cfg, nil
}

// profile runs fn under the invocation's -pprof profile, named after cmd
// by default, and stops it however fn ends, so a failed run still leaves
// a complete profile.
func (f *runFlags) profile(cmd string, stderr io.Writer, fn func() error) error {
	file := f.pprofFile
	if file == "" && f.pprofMode != "" {
		file = cmd + "-" + f.pprofMode + ".pprof"
	}
	stop, err := prof.Start(f.pprofMode, file)
	if err != nil {
		return usagef("%w", err)
	}
	err = fn()
	if serr := stop(); serr != nil {
		return errors.Join(err, serr)
	}
	if f.pprofMode != "" {
		fmt.Fprintf(stderr, "wrote %s\n", file)
	}
	return err
}

// sink is one buffered export file. The trace receives one small write
// per event, so buffering is what keeps exporting a 24-hour run cheap.
type sink struct {
	path  string
	w     io.Writer
	close func() error // nil once closed
}

// writer returns a nil interface for no sink: a typed nil inside an
// io.Writer would defeat the run's nil checks.
func (s *sink) writer() io.Writer {
	if s == nil {
		return nil
	}
	return s.w
}

// closeSinks flushes and closes each open sink, naming the file unless
// runErr says the run failed short of a result (a crashed run's partial
// files are what its resume checks against); a silently truncated
// artifact is worse than a failed run.
func closeSinks(stderr io.Writer, runErr error, sinks ...*sink) error {
	var e *exitError
	report := runErr == nil || errors.As(runErr, &e) && e.code == 3
	for _, s := range sinks {
		if s == nil || s.close == nil {
			continue
		}
		err := s.close()
		s.close = nil
		if err != nil {
			return err
		}
		if report {
			fmt.Fprintf(stderr, "wrote %s\n", s.path)
		}
	}
	return nil
}

// exports are one run's export files. A resumed run's trace and decision
// log are not opened here: ResumeFleet reopens, checks and truncates them.
type exports struct {
	tracePath, decisionsPath  string
	resume                    int // the checkpoint the run resumes from; 0 = a fresh run
	trace, metrics, decisions *sink
}

// openExports creates the export files named, the trace with optional
// gzip (a .gz suffix) and rotation.
func openExports(tracePath, metricsPath, decisionsPath string, traceRotate int64, resume int) (*exports, error) {
	ex := &exports{tracePath: tracePath, decisionsPath: decisionsPath, resume: resume}
	if tracePath != "" && resume == 0 {
		s, err := trace.OpenSink(tracePath, traceRotate)
		if err != nil {
			return nil, err
		}
		ex.trace = &sink{tracePath, s, s.Close}
	}
	var err error
	if ex.metrics, err = createSink(metricsPath); err == nil && resume == 0 {
		ex.decisions, err = createSink(decisionsPath)
	}
	if err != nil {
		closeSinks(nil, err, ex.trace, ex.metrics)
		return nil, err
	}
	return ex, nil
}

func createSink(path string) (*sink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	return &sink{path, bw, func() error {
		if err := bw.Flush(); err != nil {
			return err
		}
		return f.Close()
	}}, nil
}

// run executes cfg with the exports attached or, when resuming, finishes
// it from checkpoint ex.resume in cfg.CheckpointDir.
func (ex *exports) run(cfg experiment.MixedConfig) (*experiment.FleetResult, error) {
	if ex.resume == 0 {
		cfg.Trace, cfg.Metrics, cfg.Decisions = ex.trace.writer(), ex.metrics.writer(), ex.decisions.writer()
		return experiment.RunFleet(cfg), nil
	}
	return experiment.ResumeFleet(experiment.ResumeOptions{
		Dir:             cfg.CheckpointDir,
		Index:           ex.resume,
		TracePath:       ex.tracePath,
		DecisionsPath:   ex.decisionsPath,
		Metrics:         ex.metrics.writer(),
		CheckpointEvery: cfg.CheckpointEvery,
	})
}

// checkResult judges a finished run: a crash exits 3 with crashMsg, an
// export error or a malformed result exits 1.
func checkResult(res *experiment.MixedResult, crashMsg string) error {
	if res.Crashed {
		return &exitError{3, errors.New(crashMsg)}
	}
	if res.ExportErr != nil {
		return res.ExportErr
	}
	return res.Validate()
}
