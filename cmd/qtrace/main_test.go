package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
)

// runCLI runs qtrace in process on args.
func runCLI(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb strings.Builder
	code = cli.Qtrace(args, &out, &errb)
	return out.String(), errb.String(), code
}

// writeTrace hand-crafts a one-period trace export; the line format is
// pinned by the trace package's golden tests, so building it directly
// keeps this test free of a full simulation run.
func writeTrace(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(`{"type":"meta","v":1,"experiment":"cli-test","seed":7,"period_seconds":600,"periods":2,` +
		`"classes":[{"id":1,"name":"Class1","kind":"OLAP","goal":"velocity >= 0.40","target":0.4}]}` + "\n")
	for i, e := range []string{
		`"t":0,"kind":"submit","class":1,"query":1,"client":1`,
		`"t":1,"kind":"start","class":1,"query":1,"client":1`,
		`"t":5,"kind":"done","class":1,"query":1,"client":1`,
	} {
		fmt.Fprintf(&b, `{"type":"event","seq":%d,%s}`+"\n", i+1, e)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// An -explain period range past the schedule's last period is a usage
// mistake: qtrace must exit 2 with a clear error, not render an empty
// breakdown.
func TestPeriodPastEndExits2(t *testing.T) {
	tr := writeTrace(t) // 2 periods
	for _, spec := range []string{"class=A period=3-99", "class=A period=99", "class=A period=1-99"} {
		_, stderr, code := runCLI(t, "-explain", spec, tr)
		if code != 2 {
			t.Errorf("%q: exit %d, want 2 (stderr: %s)", spec, code, stderr)
		}
		if !strings.Contains(stderr, "out of range") && !strings.Contains(stderr, "beyond") {
			t.Errorf("%q: stderr lacks range error: %q", spec, stderr)
		}
	}
}

func TestInRangeExplainSucceeds(t *testing.T) {
	tr := writeTrace(t)
	stdout, stderr, code := runCLI(t, "-explain", "class=A period=1", tr)
	if code != 0 {
		t.Fatalf("exit %d (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "Class1") {
		t.Fatalf("explain output missing class:\n%s", stdout)
	}
}

func TestSummaryExits0(t *testing.T) {
	tr := writeTrace(t)
	stdout, _, code := runCLI(t, tr)
	if code != 0 || !strings.Contains(stdout, "cli-test") {
		t.Fatalf("summary exit %d:\n%s", code, stdout)
	}
}
