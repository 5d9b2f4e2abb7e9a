// ModulePass and the shared call graph: module-wide checks (hotalloc)
// need to reason about what a function reaches, not just what
// one package contains. The loader type-checks every package against the
// same importer, so a *types.Func is one canonical object module-wide —
// which makes a cross-package call graph a map keyed by those objects.
//
// The graph is deliberately lightweight: edges exist only for direct
// static calls (plain function calls and method calls whose receiver
// type is known). Calls through interface values, stored function
// values, and method values are not resolved — the checks that consume
// the graph treat unresolved calls as reaching nothing and rely on
// explicit //qlint:hotpath annotations at the next resolvable function
// (the same trade the repository made choosing go/types over x/tools'
// pointer analysis).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ModulePass hands a module-level check the whole loaded module plus
// reporting plumbing and the lazily built shared call graph.
type ModulePass struct {
	Fset   *token.FileSet
	Res    *Result
	Config *Config
	report func(Diagnostic)
	graph  *CallGraph
}

// Reportf records a diagnostic for the running check at pos.
func (mp *ModulePass) Reportf(check *Check, pos token.Pos, format string, args ...any) {
	p := &Pass{Fset: mp.Fset, Config: mp.Config, report: mp.report}
	p.Reportf(check, pos, format, args...)
}

// PackagePass adapts the module pass to the per-package Pass helpers
// (TypeOf, SimPackage, ...) for one of its packages.
func (mp *ModulePass) PackagePass(pkg *Package) *Pass {
	return &Pass{Fset: mp.Fset, Pkg: pkg, Config: mp.Config, report: mp.report}
}

// Graph returns the module's call graph, building it on first use so
// the cost is paid once and shared by every module-level check.
func (mp *ModulePass) Graph() *CallGraph {
	if mp.graph == nil {
		mp.graph = buildCallGraph(mp.Res)
	}
	return mp.graph
}

// FuncNode is one declared function or method in the module.
type FuncNode struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	File *File
	Pkg  *Package
	// Calls are the direct static callees in the body, excluding calls
	// inside function literals (a closure's body runs when the closure
	// is invoked, not when its creator does).
	Calls []*types.Func
}

// CallGraph maps every declared function with a body to its node.
type CallGraph struct {
	Funcs map[*types.Func]*FuncNode
}

// buildCallGraph walks every FuncDecl in the module (test files
// included: external-test packages never annotate hot paths, so
// consumers filter as needed).
func buildCallGraph(res *Result) *CallGraph {
	g := &CallGraph{Funcs: make(map[*types.Func]*FuncNode)}
	for _, pkg := range res.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				node := &FuncNode{Obj: obj, Decl: fd, File: f, Pkg: pkg}
				collectCalls(pkg.Info, fd.Body, node)
				g.Funcs[obj] = node
			}
		}
	}
	return g
}

// collectCalls appends the static callees under n to node, skipping
// function literals.
func collectCalls(info *types.Info, n ast.Node, node *FuncNode) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if callee := calleeFunc(info, c); callee != nil {
				node.Calls = append(node.Calls, callee)
			}
		}
		return true
	})
}

// calleeFunc resolves a call expression to the *types.Func it invokes
// statically, or nil for builtins, conversions, and calls through
// function values or interfaces.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := call.Fun
	for {
		p, ok := fun.(*ast.ParenExpr)
		if !ok {
			break
		}
		fun = p.X
	}
	switch fun := fun.(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			if f, ok := sel.Obj().(*types.Func); ok {
				return f
			}
			return nil
		}
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f // qualified call into another package
		}
	}
	return nil
}

// funcDisplayName renders obj as pkg-local "Recv.Name" or "Name" for
// diagnostics.
func funcDisplayName(obj *types.Func) string {
	sig, ok := obj.Type().(*types.Signature)
	if ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			return named.Obj().Name() + "." + obj.Name()
		}
	}
	return obj.Name()
}
