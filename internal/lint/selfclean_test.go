package lint

import (
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// TestRepoIsLintClean is the acceptance gate in test form: qlint over the
// real tree must be silent. Every invariant violation has to be fixed or
// carry a reasoned //lint:ignore — and because unused directives are
// findings too, stale suppressions fail this test as well.
func TestRepoIsLintClean(t *testing.T) {
	root, err := FindModuleRoot("../..")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	start := time.Now()
	res, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(res.Pkgs) < 20 {
		t.Fatalf("loaded only %d packages — loader is missing parts of the tree", len(res.Pkgs))
	}
	diags := NewRunner(DefaultChecks(), DefaultConfig()).Run(res)
	// qlint guards `make check`; if a whole-module run (load, type-check,
	// every per-package and module check including the call graph) stops
	// fitting in the budget, the analyzer regressed, not the tree.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("whole-module lint took %v, over the 10s budget — the analyzer has a performance regression", elapsed)
	}
	for _, d := range diags {
		rel, relErr := filepath.Rel(root, d.Pos.Filename)
		if relErr != nil {
			rel = d.Pos.Filename
		}
		t.Errorf("%s:%d:%d: %s: %s", rel, d.Pos.Line, d.Pos.Column, d.Check, d.Message)
	}
}

// TestLoadModulePackages sanity-checks the loader: the packages the
// checks most depend on must be present and type-check without errors.
func TestLoadModulePackages(t *testing.T) {
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatalf("module root: %v", err)
	}
	res, err := LoadModule(root)
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	found := map[string]*Package{}
	for _, p := range res.Pkgs {
		found[p.Path] = p
	}
	for _, path := range []string{
		"repro",
		"repro/internal/simclock",
		"repro/internal/engine",
		"repro/internal/experiment",
		"repro/internal/metrics",
		"repro/cmd/qsim",
		"repro/cmd/qlint",
	} {
		p, ok := found[path]
		if !ok {
			t.Errorf("package %s not loaded", path)
			continue
		}
		if len(p.TypeErrors) > 0 {
			t.Errorf("package %s has type errors: %v", path, p.TypeErrors[0])
		}
		if p.Types == nil {
			t.Errorf("package %s has no type information", path)
		}
	}
}

// TestPackageTargetIsItsModuleShare: linting one package directory gives
// exactly that package's findings from the whole-module run. The config
// drops the worker pool's goroutine allowance so the experiment package
// has a finding to compare, and the default config must clear it as the
// whole-module run does: the allowance is keyed by full import path,
// which a package loaded on its own must still carry.
func TestPackageTargetIsItsModuleShare(t *testing.T) {
	cfg := DefaultConfig()
	cfg.GoroutineAllow = nil
	whole, err := Lint("./...", nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range []string{"../experiment", "../engine"} {
		dir, err := filepath.Abs(rel)
		if err != nil {
			t.Fatal(err)
		}
		var want []Diagnostic
		for _, d := range whole {
			if filepath.Dir(d.Pos.Filename) == dir {
				want = append(want, d)
			}
		}
		got, err := Lint(rel, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s alone: %v; its share of ./...: %v", rel, got, want)
		}
		if rel == "../experiment" && len(want) == 0 {
			t.Error("../experiment has no finding without the goroutine allowance; the comparison shows nothing")
		}
	}
	clean, err := Lint("../experiment", nil, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range clean {
		t.Errorf("../experiment under the default config: %s", d)
	}
}
