// HotAllocCheck is the static complement to scripts/alloc_budget.sh:
// the runtime gate samples allocations per steady-state query, this
// check proves at CI time that the annotated hot chain contains no
// allocating construct at all. Functions opt in with //qlint:hotpath in
// their doc comment; everything they statically reach inherits the
// constraint, and //qlint:coldpath <reason> cuts the propagation where
// a reachable function is deliberately slow (fatal error formatting).
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAllocCheck flags allocating constructs in annotated hot paths:
// heap-escaping composite literals (&T{...}, slice and map literals),
// new/make, append into function-local backing (field- and
// parameter-backed scratch buffers pass), fmt calls, non-constant
// string concatenation, map iteration (hash-order walk, and the usual
// prelude to allocating its collection), closures, and concrete values
// boxed into interface arguments. Arguments of panic(...) are exempt —
// a crash path's allocations are irrelevant. The hot set is computed
// over the shared call graph from every //qlint:hotpath root, following
// direct static calls only: calls through interfaces or stored function
// values do not propagate, so chains that cross such a boundary
// re-annotate at the next concrete function.
var HotAllocCheck = &Check{
	Name: "hotalloc",
	Doc:  "flag allocating constructs in //qlint:hotpath-annotated call chains",
}

const qlintPrefix = "qlint:"

// hotDirective is one parsed //qlint:... comment.
type hotDirective struct {
	kind string // "hotpath" or "coldpath"
	pos  token.Pos
	fn   *types.Func // documented function, nil when misplaced
	used bool        // coldpath: a hot function actually calls this
}

func init() {
	HotAllocCheck.RunModule = func(mp *ModulePass) {
		directives := parseQlintDirectives(mp)
		var roots []*types.Func
		cold := map[*types.Func]*hotDirective{}
		for _, d := range directives {
			switch d.kind {
			case "hotpath":
				if d.fn != nil {
					roots = append(roots, d.fn)
				}
			case "coldpath":
				if d.fn != nil {
					cold[d.fn] = d
				}
			}
		}
		if len(roots) == 0 && len(cold) == 0 {
			return
		}
		graph := mp.Graph()

		// BFS over direct calls from the annotated roots, cutting at
		// coldpath functions and recording the annotated root each hot
		// function was reached from (for diagnostics).
		rootOf := map[*types.Func]*types.Func{}
		var queue []*types.Func
		for _, r := range roots {
			if node, ok := graph.Funcs[r]; ok && !node.File.Test {
				if _, dup := rootOf[r]; !dup {
					rootOf[r] = r
					queue = append(queue, r)
				}
			}
		}
		for len(queue) > 0 {
			fn := queue[0]
			queue = queue[1:]
			node := graph.Funcs[fn]
			for _, callee := range node.Calls {
				if d, isCold := cold[callee]; isCold {
					d.used = true
					continue
				}
				cn, ok := graph.Funcs[callee]
				if !ok || cn.File.Test || !mp.PackagePass(cn.Pkg).SimPackage() {
					continue
				}
				if _, dup := rootOf[callee]; dup {
					continue
				}
				rootOf[callee] = rootOf[fn]
				queue = append(queue, callee)
			}
		}

		for fn, root := range rootOf {
			node := graph.Funcs[fn]
			checkHotBody(mp.PackagePass(node.Pkg), node, fn, root)
		}
		for _, d := range directives {
			if d.kind == "coldpath" && d.fn != nil && !d.used {
				mp.Reportf(HotAllocCheck, d.pos,
					"unused qlint:coldpath directive: no hot path reaches this function")
			}
		}
	}
}

// parseQlintDirectives extracts //qlint: comments from every non-test,
// non-exempt file, attaching each to the function whose doc comment
// holds it; malformed or misplaced directives are findings themselves.
func parseQlintDirectives(mp *ModulePass) []*hotDirective {
	var out []*hotDirective
	for _, pkg := range mp.Res.Pkgs {
		if !mp.PackagePass(pkg).SimPackage() {
			continue
		}
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			// Map each doc-comment line to its documented function.
			docOwner := map[*ast.Comment]*types.Func{}
			for _, decl := range f.AST.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Doc == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				for _, c := range fd.Doc.List {
					docOwner[c] = obj
				}
			}
			for _, cg := range f.AST.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					if !strings.HasPrefix(text, qlintPrefix) {
						continue
					}
					rest := strings.TrimPrefix(text, qlintPrefix)
					kind, arg, _ := strings.Cut(rest, " ")
					owner, attached := docOwner[c]
					d := &hotDirective{kind: kind, pos: c.Pos(), fn: owner}
					switch {
					case kind != "hotpath" && kind != "coldpath":
						mp.Reportf(HotAllocCheck, c.Pos(),
							"unknown qlint directive %q (known: //qlint:hotpath, //qlint:coldpath <reason>)", kind)
						continue
					case !attached:
						mp.Reportf(HotAllocCheck, c.Pos(),
							"qlint:%s directive must sit in a function declaration's doc comment", kind)
						continue
					case kind == "coldpath" && strings.TrimSpace(arg) == "":
						mp.Reportf(HotAllocCheck, c.Pos(),
							"qlint:coldpath directive has no reason (want //qlint:coldpath <why this reachable function is exempt>)")
						continue
					}
					out = append(out, d)
				}
			}
		}
	}
	return out
}

// hotContext renders why fn is hot, for diagnostics.
func hotContext(fn, root *types.Func) string {
	if fn == root {
		return "in " + funcDisplayName(fn) + " (annotated //qlint:hotpath)"
	}
	return "in " + funcDisplayName(fn) + " (hot via //qlint:hotpath on " + funcDisplayName(root) + ")"
}

// checkHotBody flags every allocating construct in one hot function.
func checkHotBody(p *Pass, node *FuncNode, fn, root *types.Func) {
	ctx := hotContext(fn, root)
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			p.Reportf(HotAllocCheck, n.Pos(), "function literal allocates its closure %s", ctx)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					p.Reportf(HotAllocCheck, n.Pos(), "&composite literal escapes to the heap %s", ctx)
					return false
				}
			}
		case *ast.CompositeLit:
			if t := p.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Slice:
					p.Reportf(HotAllocCheck, n.Pos(), "slice literal allocates its backing array %s", ctx)
					return false
				case *types.Map:
					p.Reportf(HotAllocCheck, n.Pos(), "map literal allocates %s", ctx)
					return false
				}
			}
		case *ast.RangeStmt:
			if isMapType(p.TypeOf(n.X)) {
				p.Reportf(HotAllocCheck, n.Pos(), "map iteration %s: hash-order walk on the hot path (keep a dense index instead)", ctx)
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isStringExpr(p, n) && !isConstExpr(p, n) {
				p.Reportf(HotAllocCheck, n.Pos(), "string concatenation allocates %s", ctx)
				return false // one finding per concat chain
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok {
				if _, isBuiltin := p.Pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
					switch id.Name {
					case "panic":
						return false // crash-path allocations are irrelevant
					case "new":
						p.Reportf(HotAllocCheck, n.Pos(), "new(...) allocates %s", ctx)
					case "make":
						p.Reportf(HotAllocCheck, n.Pos(), "make allocates %s (hoist into a reused buffer)", ctx)
					case "append":
						if len(n.Args) > 0 && !appendTargetPreallocated(p, node.Decl, n.Args[0]) {
							p.Reportf(HotAllocCheck, n.Pos(),
								"append may grow function-local backing %s (append into a field- or parameter-backed scratch slice)", ctx)
						}
					}
					break
				}
			}
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && p.ImportedPackage(id) == "fmt" {
					p.Reportf(HotAllocCheck, n.Pos(), "fmt.%s allocates %s (use strconv.Append* into a scratch buffer)", sel.Sel.Name, ctx)
					return false
				}
			}
			checkBoxedArgs(p, n, ctx)
		}
		return true
	}
	ast.Inspect(node.Decl.Body, walk)
}

func isStringExpr(p *Pass, e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isConstExpr(p *Pass, e ast.Expr) bool {
	tv, ok := p.Pkg.Info.Types[e]
	return ok && tv.Value != nil
}

// appendTargetPreallocated reports whether the append destination is
// backed by storage that outlives the call: a field, parameter, or
// package-level slice (or a local derived from one by slicing) — the
// reused-scratch idiom. A local created in-function (or untraceable)
// gets the conservative answer.
func appendTargetPreallocated(p *Pass, fd *ast.FuncDecl, dst ast.Expr) bool {
	seen := 0
	for {
		root := sliceRootExpr(dst)
		id, ok := root.(*ast.Ident)
		if !ok {
			return false
		}
		obj := p.Pkg.Info.Uses[id]
		if obj == nil {
			return false
		}
		if !declaredWithin(obj, fd.Body) {
			return true // parameter, receiver field chain, captured, or global
		}
		// Local: trace its defining assignment.
		origin := definingExpr(p, fd, obj)
		if origin == nil || seen > 4 {
			return false
		}
		seen++
		dst = origin
	}
}

// sliceRootExpr strips slicing, selecting, indexing, derefs, parens,
// and buffer-threading calls (append / strconv.Append*) down to the
// storage root of a slice expression: e.doneScratch[:0] -> e, and
// append(t.detailBuf[:0], ...) -> t.
func sliceRootExpr(e ast.Expr) ast.Expr {
	for {
		switch v := e.(type) {
		case *ast.SliceExpr:
			e = v.X
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.ParenExpr:
			e = v.X
		case *ast.UnaryExpr:
			if v.Op != token.AND {
				return e
			}
			e = v.X
		case *ast.StarExpr:
			e = v.X
		case *ast.CallExpr:
			if !appendShapedCall(v) || len(v.Args) == 0 {
				return e
			}
			e = v.Args[0]
		default:
			return e
		}
	}
}

// appendShapedCall matches calls that thread their first argument's
// backing through: the append builtin and the strconv.Append* family.
func appendShapedCall(call *ast.CallExpr) bool {
	if isAppendCall(call) {
		return true
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		return strings.HasPrefix(sel.Sel.Name, "Append")
	}
	return false
}

// definingExpr finds the RHS that defines local obj (`obj := rhs`), or
// nil when there is none or it is not a simple define.
func definingExpr(p *Pass, fd *ast.FuncDecl, obj types.Object) ast.Expr {
	var out ast.Expr
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || out != nil {
			return out == nil
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok || p.Pkg.Info.Defs[id] != obj {
				continue
			}
			if i < len(as.Rhs) && len(as.Lhs) == len(as.Rhs) {
				out = as.Rhs[i]
			}
			return false
		}
		return true
	})
	return out
}

// checkBoxedArgs flags concrete, non-pointer-shaped, non-constant
// values passed where the callee takes an interface: the conversion
// boxes the value on the heap.
func checkBoxedArgs(p *Pass, call *ast.CallExpr, ctx string) {
	ft := p.TypeOf(call.Fun)
	if ft == nil {
		return
	}
	sig, ok := ft.Underlying().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= sig.Params().Len()-1:
			last := sig.Params().At(sig.Params().Len() - 1).Type()
			if sl, ok := last.Underlying().(*types.Slice); ok {
				param = sl.Elem()
			}
		case i < sig.Params().Len():
			param = sig.Params().At(i).Type()
		}
		if param == nil || !types.IsInterface(param) {
			continue
		}
		tv, ok := p.Pkg.Info.Types[arg]
		if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
			continue
		}
		at := tv.Type
		if types.IsInterface(at) || pointerShaped(at) {
			continue
		}
		p.Reportf(HotAllocCheck, arg.Pos(),
			"%s boxed into interface argument allocates %s", at.String(), ctx)
	}
}

// pointerShaped reports whether values of t fit in an interface word
// without allocating.
func pointerShaped(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Signature, *types.Map:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	}
	return false
}
