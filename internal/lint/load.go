// Package loading for the analyzer: discover every package under a
// module root, parse it (comments included, so //lint:ignore directives
// survive), and type-check it with nothing but the standard library.
//
// x/tools' go/packages is off-limits (the repository is stdlib-only), so
// this is a small from-scratch loader: walk the tree, build the
// module-internal import graph, topologically sort it, and feed each
// package through go/types with an importer chain that resolves
// module-internal paths from the packages we just checked and standard
// library paths from compiler export data (falling back to type-checking
// the standard library from source when no export data is installed).
package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// File is one parsed source file of a package.
type File struct {
	AST  *ast.File
	Name string // absolute path
	Test bool   // *_test.go
}

// Package is one type-checked package unit. In-package test files are
// included in the unit (external foo_test packages become their own unit)
// so that checks can see — and deliberately skip — test code.
type Package struct {
	Path       string // import path ("repro/internal/engine")
	Dir        string
	Files      []*File
	Types      *types.Package
	Info       *types.Info
	TypeErrors []error // soft type-check errors, reported by the runner
}

// Result is a loaded set of packages sharing one FileSet, in dependency
// (topological) order.
type Result struct {
	Fset *token.FileSet
	Pkgs []*Package
}

var moduleRe = regexp.MustCompile(`(?m)^module\s+(\S+)\s*$`)

// FindModuleRoot walks upward from dir to the directory containing go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// LoadModule loads and type-checks every package under the module rooted
// at root (skipping testdata, vendor, and hidden directories).
func LoadModule(root string) (*Result, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modBytes, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %w", err)
	}
	m := moduleRe.FindSubmatch(modBytes)
	if m == nil {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", root)
	}
	modPath := string(m[1])

	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)

	l := newLoader()
	for _, dir := range dirs {
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return nil, err
		}
		path := modPath
		if rel != "." {
			path = modPath + "/" + filepath.ToSlash(rel)
		}
		if err := l.parseDir(dir, path); err != nil {
			return nil, err
		}
	}
	return l.typeCheckAll(modPath)
}

type loader struct {
	fset   *token.FileSet
	units  map[string]*unit // by import path
	order  []string         // parse order, for stable topo tie-breaks
	typed  map[string]*types.Package
	gcImp  types.Importer
	srcImp types.Importer
}

type unit struct {
	pkg     *Package
	imports map[string]bool // all import paths (module-internal and std)
}

func newLoader() *loader {
	fset := token.NewFileSet()
	return &loader{
		fset:   fset,
		units:  make(map[string]*unit),
		typed:  make(map[string]*types.Package),
		gcImp:  importer.ForCompiler(fset, "gc", nil),
		srcImp: importer.ForCompiler(fset, "source", nil),
	}
}

// parseDir parses every .go file in dir into package units: the primary
// package (with its in-package test files) and, if present, the external
// foo_test package as a separate unit at path+".test".
func (l *loader) parseDir(dir, path string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	type parsed struct {
		file *File
		ext  bool // external test package (package foo_test)
	}
	var files []parsed
	base := ""
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") ||
			strings.HasPrefix(e.Name(), ".") || strings.HasPrefix(e.Name(), "_") {
			continue
		}
		full := filepath.Join(dir, e.Name())
		af, err := parser.ParseFile(l.fset, full, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		name := af.Name.Name
		test := strings.HasSuffix(e.Name(), "_test.go")
		ext := test && strings.HasSuffix(name, "_test")
		if !ext {
			if base == "" {
				base = name
			} else if name != base {
				return fmt.Errorf("lint: %s: package %s conflicts with %s in %s", full, name, base, dir)
			}
		}
		files = append(files, parsed{&File{AST: af, Name: full, Test: test}, ext})
	}
	if len(files) == 0 {
		return nil
	}
	add := func(path string, sel func(parsed) bool) {
		var fs []*File
		imports := make(map[string]bool)
		for _, p := range files {
			if !sel(p) {
				continue
			}
			fs = append(fs, p.file)
			for _, imp := range p.file.AST.Imports {
				if ip, err := strconv.Unquote(imp.Path.Value); err == nil {
					imports[ip] = true
				}
			}
		}
		if len(fs) == 0 {
			return
		}
		l.units[path] = &unit{pkg: &Package{Path: path, Dir: dir, Files: fs}, imports: imports}
		l.order = append(l.order, path)
	}
	add(path, func(p parsed) bool { return !p.ext })
	add(path+".test", func(p parsed) bool { return p.ext })
	return nil
}

// typeCheckAll topologically sorts the module-internal import graph and
// type-checks each unit. Type errors are collected per package, not fatal:
// the runner surfaces them as diagnostics.
func (l *loader) typeCheckAll(modPath string) (*Result, error) {
	// Kahn's algorithm over module-internal edges, with parse order
	// breaking ties so output order is stable.
	indeg := make(map[string]int, len(l.units))
	dependents := make(map[string][]string, len(l.units))
	for path, u := range l.units {
		for imp := range u.imports {
			if _, ok := l.units[imp]; ok {
				indeg[path]++
				dependents[imp] = append(dependents[imp], path)
			}
		}
		// foo.test implicitly depends on foo.
		if strings.HasSuffix(path, ".test") {
			if _, ok := l.units[strings.TrimSuffix(path, ".test")]; ok {
				indeg[path]++
				dependents[strings.TrimSuffix(path, ".test")] = append(dependents[strings.TrimSuffix(path, ".test")], path)
			}
		}
	}
	var queue, topo []string
	for _, path := range l.order {
		if indeg[path] == 0 {
			queue = append(queue, path)
		}
	}
	for len(queue) > 0 {
		path := queue[0]
		queue = queue[1:]
		topo = append(topo, path)
		deps := dependents[path]
		sort.Strings(deps)
		for _, d := range deps {
			indeg[d]--
			if indeg[d] == 0 {
				queue = append(queue, d)
			}
		}
	}
	if len(topo) != len(l.units) {
		var stuck []string
		for path := range l.units {
			if indeg[path] > 0 {
				stuck = append(stuck, path)
			}
		}
		sort.Strings(stuck)
		return nil, fmt.Errorf("lint: import cycle involving %s", strings.Join(stuck, ", "))
	}

	res := &Result{Fset: l.fset}
	for _, path := range topo {
		u := l.units[path]
		pkg := u.pkg
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Implicits:  make(map[ast.Node]types.Object),
		}
		cfg := &types.Config{
			Importer: l,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		asts := make([]*ast.File, len(pkg.Files))
		for i, f := range pkg.Files {
			asts[i] = f.AST
		}
		// Check returns an error on the first problem, but with cfg.Error
		// set it still type-checks as much as it can; keep the partial
		// package so checks run best-effort.
		tpkg, _ := cfg.Check(path, l.fset, asts, info)
		pkg.Types = tpkg
		pkg.Info = info
		l.typed[path] = tpkg
		res.Pkgs = append(res.Pkgs, pkg)
	}
	return res, nil
}

// Import resolves an import for go/types: module-internal packages come
// from the units already checked (topological order guarantees they
// exist), everything else from compiler export data with a
// from-source fallback.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.typed[path]; ok && p != nil {
		return p, nil
	}
	if _, ok := l.units[path]; ok {
		return nil, fmt.Errorf("lint: internal package %s not yet type-checked (import cycle?)", path)
	}
	p, err := l.gcImp.Import(path)
	if err == nil {
		return p, nil
	}
	return l.srcImp.Import(path)
}
