// Command qlint is the repository's determinism and simulation-invariant
// analyzer: a from-scratch static checker on the standard library's
// go/parser + go/ast + go/types (no x/tools) that loads every package in
// the module, type-checks it, and enforces the invariants the experiment
// harness's bit-identical replay depends on.
//
// Usage:
//
//	qlint ./...              # lint the whole module (default)
//	qlint -list              # describe the registered checks
//	qlint -checks floateq,maporder ./...
//	qlint -json ./...        # machine-readable findings on stdout
//	qlint -github ./...      # GitHub Actions workflow annotations
//	qlint path/to/dir        # lint one package: its share of the module's run
//
// Findings print as file:line:col: check: message and make qlint exit 1.
// -json emits them as a JSON array of {file,line,col,check,message}
// objects (an empty array when clean), and -github emits one
// ::error workflow command per finding so CI surfaces them inline on
// the pull request diff.
// A finding is silenced with a trailing (or directly preceding) comment
//
//	//lint:ignore <check> <reason>
//
// where the reason is mandatory; unused or malformed directives are
// findings themselves. See DESIGN.md ("Lint invariants") for what each
// check guards and why.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
)

func main() {
	list := flag.Bool("list", false, "list registered checks and exit")
	checksFlag := flag.String("checks", "", "comma-separated subset of checks to run (default: all)")
	chdir := flag.String("C", "", "change to this directory before loading")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON array of {file,line,col,check,message}")
	githubOut := flag.Bool("github", false, "emit findings as GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: qlint [flags] [./... | dir]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	all := lint.DefaultChecks()
	if *list {
		for _, c := range all {
			fmt.Printf("%-12s %s\n", c.Name, c.Doc)
		}
		return
	}
	checks := all
	if *checksFlag != "" {
		checks = nil
		for _, name := range strings.Split(*checksFlag, ",") {
			name = strings.TrimSpace(name)
			c := lint.CheckByName(all, name)
			if c == nil {
				fatalf("qlint: unknown check %q (try -list)", name)
			}
			checks = append(checks, c)
		}
	}

	if *chdir != "" {
		if err := os.Chdir(*chdir); err != nil {
			fatalf("qlint: %v", err)
		}
	}

	target := "./..."
	switch flag.NArg() {
	case 0:
	case 1:
		target = flag.Arg(0)
	default:
		fatalf("qlint: at most one target (got %q)", flag.Args())
	}

	diags, err := lint.Lint(target, checks, lint.DefaultConfig())
	if err != nil {
		fatalf("qlint: %v", err)
	}
	cwd, _ := os.Getwd()
	relName := func(name string) string {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
				return rel
			}
		}
		return name
	}
	switch {
	case *jsonOut:
		type finding struct {
			File    string `json:"file"`
			Line    int    `json:"line"`
			Col     int    `json:"col"`
			Check   string `json:"check"`
			Message string `json:"message"`
		}
		out := []finding{} // never null, even when clean
		for _, d := range diags {
			out = append(out, finding{relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "\t")
		if err := enc.Encode(out); err != nil {
			fatalf("qlint: %v", err)
		}
	case *githubOut:
		for _, d := range diags {
			// Workflow-command grammar: property values escape , and %,
			// the message escapes newlines too.
			esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A")
			prop := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A", ",", "%2C", ":", "%3A")
			fmt.Printf("::error file=%s,line=%d,col=%d,title=qlint %s::%s\n",
				prop.Replace(relName(d.Pos.Filename)), d.Pos.Line, d.Pos.Column,
				prop.Replace(d.Check), esc.Replace(d.Message))
		}
	default:
		for _, d := range diags {
			fmt.Printf("%s:%d:%d: %s: %s\n", relName(d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Check, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "qlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(2)
}
