package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// testConfig mirrors DefaultConfig for the testdata layout: the
// goroutine testdata package approves its own pool file, the floateq
// package approves its own epsilon helper, and the poolsafety package
// declares its own acquire/release pair.
func testConfig() *Config {
	return &Config{
		GoroutineAllow:    map[string][]string{"goroutine": {"allowed.go"}},
		FloatEqAllowFuncs: map[string][]string{"floateq": {"approxEqual", "boundsEqual"}},
		PoolAPIs:          []PoolAPI{{Pkg: "poolsafety", Acquire: "acquire", Release: "release"}},
	}
}

// want is one golden expectation: a diagnostic on file:line whose
// "check: message" text matches re.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// wantRe parses `// want "regex"` markers, each optionally carrying a
// line offset (`want:-1 "regex"` expects the finding one line above the
// comment — used for directive-hygiene findings that land on the
// //lint:ignore line itself).
var wantRe = regexp.MustCompile(`want(?::(-?\d+))?((?:\s+"(?:[^"\\]|\\.)*")+)`)

var wantStrRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

func parseWants(t *testing.T, res *Result) []*want {
	t.Helper()
	var wants []*want
	for _, pkg := range res.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					pos := res.Fset.Position(c.Pos())
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						offset := 0
						if m[1] != "" {
							offset, _ = strconv.Atoi(m[1])
						}
						for _, q := range wantStrRe.FindAllString(m[2], -1) {
							pat, err := strconv.Unquote(q)
							if err != nil {
								t.Fatalf("%s: bad want string %s: %v", pos, q, err)
							}
							re, err := regexp.Compile(pat)
							if err != nil {
								t.Fatalf("%s: bad want regexp %q: %v", pos, pat, err)
							}
							wants = append(wants, &want{file: pos.Filename, line: pos.Line + offset, re: re})
						}
					}
				}
			}
		}
	}
	return wants
}

// runGolden loads testdata/src/<name>, runs all checks with the test
// config, and verifies the diagnostics against the // want markers:
// every marker must match a finding on its line, every finding must be
// claimed by a marker.
func runGolden(t *testing.T, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	res, err := LoadDir(dir, name)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	for _, pkg := range res.Pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("testdata must type-check cleanly: %v", terr)
		}
	}
	diags := NewRunner(DefaultChecks(), testConfig()).Run(res)
	wants := parseWants(t, res)
	for _, d := range diags {
		text := fmt.Sprintf("%s: %s", d.Check, d.Message)
		claimed := false
		for _, w := range wants {
			if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(text) {
				w.matched = true
				claimed = true
				break
			}
		}
		if !claimed {
			t.Errorf("unexpected finding %s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, text)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing finding at %s:%d matching %q", filepath.Base(w.file), w.line, w.re)
		}
	}
}

func TestGoldenWallclock(t *testing.T)  { runGolden(t, "wallclock") }
func TestGoldenGlobalRand(t *testing.T) { runGolden(t, "globalrand") }
func TestGoldenMapOrder(t *testing.T)   { runGolden(t, "maporder") }
func TestGoldenGoroutine(t *testing.T)  { runGolden(t, "goroutine") }
func TestGoldenFloatEq(t *testing.T)    { runGolden(t, "floateq") }
func TestGoldenSuppress(t *testing.T)   { runGolden(t, "suppress") }
func TestGoldenPoolSafety(t *testing.T) { runGolden(t, "poolsafety") }
func TestGoldenHotAlloc(t *testing.T)   { runGolden(t, "hotalloc") }

// TestCheckSubsetKeepsSuppressionsValid pins the -checks subset
// behaviour: directives naming real-but-disabled checks are neither
// "unknown check" findings (names validate against the full registry)
// nor "unused" findings (a disabled check generates nothing to match),
// while directive hygiene for malformed or truly unknown names still
// fires.
func TestCheckSubsetKeepsSuppressionsValid(t *testing.T) {
	res, err := LoadDir(filepath.Join("testdata", "src", "suppress"), "suppress")
	if err != nil {
		t.Fatal(err)
	}
	diags := NewRunner([]*Check{PoolSafetyCheck}, testConfig()).Run(res)
	for _, d := range diags {
		switch {
		case strings.Contains(d.Message, "unused lint:ignore"):
			t.Errorf("subset run flagged a disabled check's suppression as unused: %s:%d: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		case strings.Contains(d.Message, "unknown check") &&
			!strings.Contains(d.Message, `"nosuchcheck"`) &&
			!strings.Contains(d.Message, `"poolsafty"`):
			t.Errorf("subset run rejected a registered check's suppression: %s:%d: %s",
				filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message)
		}
	}
	// The genuinely malformed directives must still surface.
	var unknown, noReason int
	for _, d := range diags {
		if strings.Contains(d.Message, "unknown check") {
			unknown++
		}
		if strings.Contains(d.Message, "has no reason") {
			noReason++
		}
	}
	if unknown == 0 || noReason == 0 {
		t.Errorf("directive hygiene vanished under -checks subset: %d unknown, %d no-reason", unknown, noReason)
	}
}

func TestCheckDocs(t *testing.T) {
	seen := map[string]bool{}
	for _, c := range DefaultChecks() {
		if c.Name == "" || c.Doc == "" || (c.Run == nil && c.RunModule == nil) {
			t.Errorf("check %+v missing name, doc, or run function", c)
		}
		if seen[c.Name] {
			t.Errorf("duplicate check name %q", c.Name)
		}
		seen[c.Name] = true
		if strings.ToLower(c.Name) != c.Name {
			t.Errorf("check name %q must be lower-case (used in //lint:ignore directives)", c.Name)
		}
	}
	for _, name := range []string{
		"wallclock", "globalrand", "maporder", "goroutine", "floateq",
		"poolsafety", "hotalloc",
	} {
		if !seen[name] {
			t.Errorf("required check %q not registered", name)
		}
	}
}

// TestDefaultConfigObsAllowlist pins the metrics registry's floateq
// allowlist entry: obs compares histogram bucket boundaries for identity
// (configuration literals), and that exemption must be scoped to exactly
// the one helper — not the whole package.
func TestDefaultConfigObsAllowlist(t *testing.T) {
	funcs := DefaultConfig().FloatEqAllowFuncs["repro/internal/obs"]
	if len(funcs) != 1 || funcs[0] != "boundsEqual" {
		t.Errorf("obs floateq allowlist = %v, want exactly [boundsEqual]", funcs)
	}
}
