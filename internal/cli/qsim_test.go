package cli

import (
	"io"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRejectionsNameTheirReaders checks each flag that only some
// experiments read against what parsing does: the message every
// experiment that rejects the flag prints names exactly the -exp values
// that accept it, in table order with "all" last, plus the scenario
// clause exactly when a -scenario run accepts it; and the flag's -help
// text names the same list.
func TestRejectionsNameTheirReaders(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "f")
	_, help, _ := call(qsim, "-h")
	list := regexp.MustCompile(`-exp ([a-z0-9|-]+)( or [a-z -]*-scenario)?`)
	for _, tc := range []struct {
		flag string
		args []string
		help bool // the flag's -help text carries the list
	}{
		{"backends", []string{"-backends", "2"}, true},
		{"trace", []string{"-trace", file}, true},
		{"metrics", []string{"-metrics", file}, false}, // its help points at -trace
		{"decisions", []string{"-decisions", file}, true},
		{"faults", []string{"-faults", file}, true},
		{"mitigate", []string{"-mitigate"}, true},
		{"quick", []string{"-quick"}, true},
		{"checkpoint-every", []string{"-checkpoint-every", "3", "-checkpoint-dir", dir}, true},
	} {
		t.Run(tc.flag, func(t *testing.T) {
			var exps, accepted []string
			for _, e := range qsimExperiments {
				exps = append(exps, e.name)
			}
			msg := ""
			for _, exp := range append(exps, "all") {
				_, err := parseQsim(append([]string{"-exp", exp}, tc.args...), io.Discard)
				switch {
				case err == nil:
					accepted = append(accepted, exp)
				case msg == "":
					msg = err.Error()
				case err.Error() != msg:
					t.Fatalf("-exp %s: %q; another experiment got %q", exp, err, msg)
				}
			}
			_, err := parseQsim(append([]string{"-scenario", file}, tc.args...), io.Discard)
			scenario := err == nil
			m := list.FindStringSubmatch(msg)
			if m == nil {
				t.Fatalf("message %q lists no experiments", msg)
			}
			if got, want := m[1], strings.Join(accepted, "|"); got != want {
				t.Errorf("message %q lists -exp %s; the experiments that accept -%s are %s", msg, got, tc.flag, want)
			}
			if (m[2] != "") != scenario {
				t.Errorf("message %q: names a scenario %v, a -scenario run accepts -%s %v", msg, m[2] != "", tc.flag, scenario)
			}
			if !tc.help {
				return
			}
			usage := regexp.MustCompile(`\n  -` + regexp.QuoteMeta(tc.flag) + `[ \n](.|\n    )*`).FindString(help)
			if !strings.Contains(usage, m[0]) {
				t.Errorf("-help for -%s does not name %q:\n%s", tc.flag, m[0], usage)
			}
		})
	}
}
