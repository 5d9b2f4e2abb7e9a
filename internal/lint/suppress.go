// //lint:ignore directive handling.
//
// A finding is suppressed by
//
//	//lint:ignore <check>[,<check>...] <reason>
//
// either trailing the offending line or on its own line directly above
// it. The reason is mandatory — a suppression without one is itself a
// diagnostic — as is naming a real check; a directive that matches no
// finding is reported as unused so stale suppressions cannot accumulate.
package lint

import (
	"fmt"
	"go/token"
	"strings"
)

// directive is one parsed //lint:ignore comment.
type directive struct {
	file    string
	line    int
	checks  []string
	reason  string
	raw     string
	bad     string // non-empty: why the directive is invalid
	used    bool
	test    bool // directive lives in a _test.go file
	enabled bool // at least one named check runs in this invocation
}

const ignorePrefix = "lint:ignore"

// parseDirectives extracts every //lint:ignore directive from the loaded
// packages. Named checks are validated against the full registry
// (DefaultChecks), not just the checks enabled for this run — a `-checks
// hotalloc` invocation must not flag every suppression for the other
// checks as unknown. enabled records whether any named check is in this
// run's set, which gates unused-directive reporting the same way.
func parseDirectives(res *Result, enabled []*Check) []*directive {
	registry := DefaultChecks()
	var out []*directive
	for _, pkg := range res.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					text = strings.TrimSpace(text)
					if !strings.HasPrefix(text, ignorePrefix) {
						continue
					}
					pos := res.Fset.Position(c.Pos())
					d := &directive{
						file: pos.Filename,
						line: pos.Line,
						raw:  text,
						test: f.Test,
					}
					rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
					name, reason, _ := strings.Cut(rest, " ")
					d.reason = strings.TrimSpace(reason)
					switch {
					case name == "":
						d.bad = "lint:ignore directive names no check (want //lint:ignore <check> <reason>)"
					case d.reason == "":
						d.bad = "lint:ignore directive has no reason (want //lint:ignore <check> <reason>)"
					default:
						for _, n := range strings.Split(name, ",") {
							n = strings.TrimSpace(n)
							if CheckByName(registry, n) == nil {
								d.bad = fmt.Sprintf("lint:ignore names unknown check %q", n)
								break
							}
							if CheckByName(enabled, n) != nil {
								d.enabled = true
							}
							d.checks = append(d.checks, n)
						}
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// applySuppressions filters diags through the directives in res and
// appends directive-hygiene diagnostics (invalid or unused directives).
// An invalid directive suppresses nothing.
func applySuppressions(res *Result, checks []*Check, diags []Diagnostic) []Diagnostic {
	dirs := parseDirectives(res, checks)
	// Index by file:line for the two lines a directive covers.
	type key struct {
		file string
		line int
	}
	index := make(map[key][]*directive)
	for _, d := range dirs {
		if d.bad != "" {
			continue
		}
		index[key{d.file, d.line}] = append(index[key{d.file, d.line}], d)
		index[key{d.file, d.line + 1}] = append(index[key{d.file, d.line + 1}], d)
	}
	var out []Diagnostic
	for _, diag := range diags {
		suppressed := false
		for _, d := range index[key{diag.Pos.Filename, diag.Pos.Line}] {
			for _, name := range d.checks {
				if name == diag.Check {
					suppressed = true
					d.used = true
				}
			}
		}
		if !suppressed {
			out = append(out, diag)
		}
	}
	for _, d := range dirs {
		switch {
		case d.bad != "":
			out = append(out, Diagnostic{
				Pos:     positionAt(d),
				Check:   "lint",
				Message: d.bad,
			})
		case !d.used && !d.test && d.enabled:
			// Unused directives only matter in non-test files (the checks
			// skip test code, so a directive there can never match) and
			// only when a named check actually ran — under a -checks
			// subset, suppressions for the disabled checks have no
			// findings to match and are not stale.
			out = append(out, Diagnostic{
				Pos:     positionAt(d),
				Check:   "lint",
				Message: "unused lint:ignore directive for " + strings.Join(d.checks, ",") + " (no matching finding on this or the next line)",
			})
		}
	}
	return out
}

func positionAt(d *directive) (p token.Position) {
	p.Filename = d.file
	p.Line = d.line
	p.Column = 1
	return p
}
