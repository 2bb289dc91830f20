package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathAlloc enforces the zero-allocation contract of the frame hot
// path: starting from every //lint:hotpath-annotated function, it walks
// the static call graph (direct calls and concrete method calls; dynamic
// interface dispatch is a traversal boundary, which is why the per-tier
// LookupBatch implementations carry their own annotations) and flags
// heap-allocating constructs on the way. //lint:coldpath marks the
// explicit hand-off to the intentionally expensive slow path and stops
// the walk.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "forbid heap-allocating constructs on //lint:hotpath call graphs",
	Run:  runHotPathAlloc,
}

// hotFunc is one function reachable from a hot-path root.
type hotFunc struct {
	decl *ast.FuncDecl
	pkg  *Package
	root string // the annotated root it was reached from
}

func runHotPathAlloc(pass *Pass) {
	prog := pass.Prog
	decls := make(map[*types.Func]*hotFunc) // every function with a body
	cold := make(map[*types.Func]bool)
	var roots []*types.Func
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				decls[obj] = &hotFunc{decl: fd, pkg: pkg}
				if HasDirective(fd.Doc, DirColdpath) {
					cold[obj] = true
				}
				if pkg.Target && HasDirective(fd.Doc, DirHotpath) {
					roots = append(roots, obj)
					if HasDirective(fd.Doc, DirColdpath) {
						pass.Reportf(fd.Pos(), "function %s is annotated both hotpath and coldpath", fd.Name.Name)
					}
				}
			}
		}
	}

	// Breadth-first reachability from the roots, stopping at coldpath
	// boundaries. The first root to reach a function owns the attribution.
	reached := make(map[*types.Func]*hotFunc)
	var queue []*types.Func
	for _, r := range roots {
		if reached[r] == nil {
			hf := decls[r]
			hf.root = hf.decl.Name.Name
			reached[r] = hf
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		hf := reached[fn]
		ast.Inspect(hf.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(hf.pkg.Info, call)
			if callee == nil || cold[callee] || reached[callee] != nil {
				return true
			}
			next, ok := decls[callee]
			if !ok {
				return true // no body in the loaded program (stdlib, interface)
			}
			reached[callee] = &hotFunc{decl: next.decl, pkg: next.pkg, root: hf.root}
			queue = append(queue, callee)
			return true
		})
	}

	// Stable order: iterate packages and declarations, not the map.
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, _ := pkg.Info.Defs[fd.Name].(*types.Func)
				if hf := reached[obj]; hf != nil {
					checkHotBody(pass, hf)
				}
			}
		}
	}
}

// checkHotBody flags the allocating constructs in one hot function body.
func checkHotBody(pass *Pass, hf *hotFunc) {
	info := hf.pkg.Info
	fd := hf.decl
	report := func(pos token.Pos, format string, args ...any) {
		args = append(args, hf.root)
		pass.Reportf(pos, format+" (hot path via %s)", args...)
	}
	// Walk from the declaration, not the body, so the ancestor stack
	// includes the FuncDecl itself (localSliceArg needs the enclosing
	// function to classify append targets).
	inspectWithStack(fd, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkHotCall(report, info, n, stack)
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					report(n.Pos(), "map literal allocates")
				}
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					report(n.Pos(), "address of composite literal escapes to the heap")
				}
			}
		case *ast.FuncLit:
			if name := capturedVar(info, fd, n); name != "" {
				report(n.Pos(), "closure captures %q and allocates per call", name)
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkMapWrite(report, info, lhs)
			}
		case *ast.IncDecStmt:
			checkMapWrite(report, info, n.X)
		case *ast.TypeAssertExpr:
			if n.Type != nil { // x.(type) is the switch's, checked per case
				checkIfaceAssert(report, info, n.Type)
			}
		case *ast.CaseClause:
			if _, ok := stack[len(stack)-2].(*ast.TypeSwitchStmt); ok {
				for _, e := range n.List {
					checkIfaceAssert(report, info, e)
				}
			}
		}
		return true
	})
}

// checkIfaceAssert flags a type assertion, or a type switch case, to an
// interface type: the runtime answers it from a per-call-site cache of the
// dynamic types seen there, and rebuilds that cache now and then as it
// fills, allocating (runtime.typeAssert). An assertion to a concrete type is
// a compare of type words and stays exempt.
func checkIfaceAssert(report func(token.Pos, string, ...any), info *types.Info, typ ast.Expr) {
	t := info.TypeOf(typ)
	if t == nil || !types.IsInterface(t) {
		return
	}
	report(typ.Pos(), "assertion to interface type %s can allocate in the runtime's type-assertion cache (resolve it once, off the hot path)", types.TypeString(t, (*types.Package).Name))
}

// checkMapWrite flags stores through a map index expression — bucket
// growth allocates, and the hot path must not carry map state at all.
func checkMapWrite(report func(token.Pos, string, ...any), info *types.Info, lhs ast.Expr) {
	idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
	if !ok {
		return
	}
	t := info.TypeOf(idx.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); ok {
		report(lhs.Pos(), "map write can grow buckets")
	}
}

// checkHotCall flags allocating calls: unamortized make, new, growth
// appends, fmt, and interface boxing of arguments.
func checkHotCall(report func(token.Pos, string, ...any), info *types.Info, call *ast.CallExpr, stack []ast.Node) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				if !capGuarded(call, stack) {
					report(call.Pos(), "unamortized make (guard growth with a cap check, or hoist the buffer to reusable scratch)")
				}
			case "new":
				report(call.Pos(), "new allocates")
			case "append":
				if localSliceArg(info, call, stack) {
					report(call.Pos(), "append grows a function-local slice per call (reuse caller-owned or struct scratch instead)")
				}
			}
			return
		}
	}
	callee := calleeOf(info, call)
	if callee != nil && callee.Pkg() != nil && callee.Pkg().Path() == "fmt" {
		report(call.Pos(), "fmt.%s allocates (formatting boxes its operands)", callee.Name())
		return
	}
	checkBoxing(report, info, call)
}

// checkBoxing flags arguments whose static type is a concrete non-pointer
// value passed to an interface-typed parameter — the boxing allocation
// fmt-style APIs hide.
func checkBoxing(report func(token.Pos, string, ...any), info *types.Info, call *ast.CallExpr) {
	if call.Ellipsis.IsValid() {
		return // f(xs...) passes the slice through, no per-element boxing
	}
	sigT := info.TypeOf(call.Fun)
	if sigT == nil {
		return
	}
	sig, ok := sigT.Underlying().(*types.Signature)
	if !ok {
		return // a conversion, not a call
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil || types.IsInterface(at) {
			continue
		}
		switch at.Underlying().(type) {
		case *types.Pointer, *types.Chan, *types.Signature:
			continue // pointer-shaped: interface conversion does not copy
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		report(arg.Pos(), "argument boxes a %s into an interface parameter", at.String())
	}
}

// capGuarded reports whether a make call sits under an if whose condition
// consults cap() — the amortized-growth idiom
// (if cap(buf) < n { buf = make(...) }).
func capGuarded(call *ast.CallExpr, stack []ast.Node) bool {
	for _, anc := range stack {
		ifStmt, ok := anc.(*ast.IfStmt)
		if !ok {
			continue
		}
		guarded := false
		ast.Inspect(ifStmt.Cond, func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok {
				if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "cap" {
					guarded = true
				}
			}
			return !guarded
		})
		if guarded {
			return true
		}
	}
	return false
}

// localSliceArg reports whether the append target is a slice variable
// declared inside the enclosing function (growth that cannot amortize
// across calls). Parameters and struct fields are exempt: they are the
// caller-owned and reusable-scratch patterns.
func localSliceArg(info *types.Info, call *ast.CallExpr, stack []ast.Node) bool {
	if len(call.Args) == 0 {
		return false
	}
	id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	var fn ast.Node
	for _, anc := range stack {
		switch anc.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = anc
		}
	}
	if fn == nil {
		return false
	}
	if fd, ok := fn.(*ast.FuncDecl); ok && paramOf(info, fd.Type, fd.Recv, v) {
		return false
	}
	if fl, ok := fn.(*ast.FuncLit); ok && paramOf(info, fl.Type, nil, v) {
		return false
	}
	return v.Pos() >= fn.Pos() && v.Pos() <= fn.End()
}

// paramOf reports whether v is a parameter, result or receiver of the
// function type.
func paramOf(info *types.Info, ft *ast.FuncType, recv *ast.FieldList, v *types.Var) bool {
	match := func(fl *ast.FieldList) bool {
		if fl == nil {
			return false
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if info.Defs[name] == v {
					return true
				}
			}
		}
		return false
	}
	return match(ft.Params) || match(ft.Results) || match(recv)
}

// capturedVar returns the name of one variable the func literal captures
// from its enclosing function scope ("" when it captures nothing —
// package-level state is not a capture and costs nothing).
func capturedVar(info *types.Info, encl *ast.FuncDecl, lit *ast.FuncLit) string {
	name := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if name != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal.
		if v.Pos() >= encl.Pos() && v.Pos() < lit.Pos() {
			name = v.Name()
		}
		return true
	})
	return name
}

// calleeOf resolves a call to its static *types.Func: a package function,
// a concrete method, or an interface method (which then has no body in
// the program and acts as a traversal boundary). A function or method of
// an instantiated generic resolves to its declaration (Origin), the one
// that has a body.
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn.Origin()
		}
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn.Origin()
		}
	}
	return nil
}
