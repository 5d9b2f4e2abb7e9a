package lint

import (
	"go/ast"
)

// OsExitCheck allows os.Exit only inside func main of a package main. An
// exit anywhere else skips every deferred cleanup on its way out — a CPU
// profile stays empty, a buffered export unflushed — and a function that
// exits cannot be tested in process. The CLIs return their exit code
// (internal/cli) and only main exits with it.
var OsExitCheck = &Check{
	Name: "osexit",
	Doc:  "allow os.Exit only inside func main of a package main; return an exit code instead",
}

func init() {
	OsExitCheck.Run = func(p *Pass) {
		if !p.SimPackage() {
			return
		}
		for _, f := range p.Pkg.Files {
			if f.Test {
				continue // TestMain exits with m.Run's code
			}
			for _, decl := range f.AST.Decls {
				if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv == nil && fd.Name.Name == "main" && f.AST.Name.Name == "main" {
					continue
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					sel, ok := n.(*ast.SelectorExpr)
					if !ok || sel.Sel.Name != "Exit" {
						return true
					}
					if id, ok := sel.X.(*ast.Ident); ok && p.ImportedPackage(id) == "os" {
						p.Reportf(OsExitCheck, sel.Pos(),
							"os.Exit outside func main skips deferred cleanup and cannot be tested in process: return an exit code and let main exit with it")
					}
					return true
				})
			}
		}
	}
}
