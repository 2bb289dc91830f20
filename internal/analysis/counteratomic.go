package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
)

// CounterAtomic enforces a single access discipline per counter field:
// every field of a struct annotated //lint:atomiccounters must be
// accessed either always through sync/atomic or always plainly (under
// whatever serialization the owner documents) — never mixed. A counter
// bumped atomically in one sweep and read plainly in a String() method
// is exactly the torn-read bug class this catches at compile time.
var CounterAtomic = &Analyzer{
	Name: "counteratomic",
	Doc:  "forbid mixed atomic/plain access to //lint:atomiccounters struct fields",
	Run:  runCounterAtomic,
}

// counterField identifies one tracked field.
type counterField struct {
	typ   *types.Named
	field string
}

// fieldAccess is one access site.
type fieldAccess struct {
	pos    token.Pos
	atomic bool
}

func runCounterAtomic(pass *Pass) {
	tracked := collectCounterStructs(pass)
	if len(tracked) == 0 {
		return
	}
	accesses := make(map[counterField][]fieldAccess)
	for _, pkg := range pass.Prog.Pkgs {
		for _, f := range pkg.Files {
			collectFieldAccesses(pkg, f, tracked, accesses)
		}
	}
	keys := make([]counterField, 0, len(accesses))
	for k := range accesses {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if a, b := keys[i].typ.Obj().Name(), keys[j].typ.Obj().Name(); a != b {
			return a < b
		}
		return keys[i].field < keys[j].field
	})
	for _, k := range keys {
		sites := accesses[k]
		var firstAtomic token.Pos
		nAtomic := 0
		for _, s := range sites {
			if s.atomic {
				if nAtomic == 0 || s.pos < firstAtomic {
					firstAtomic = s.pos
				}
				nAtomic++
			}
		}
		if nAtomic == 0 || nAtomic == len(sites) {
			continue // one discipline throughout
		}
		at := pass.Prog.Fset.Position(firstAtomic)
		for _, s := range sites {
			if !s.atomic {
				pass.Reportf(s.pos, "plain access to %s.%s, which is accessed atomically at %s:%d (pick one discipline for the field)",
					k.typ.Obj().Name(), k.field, filepath.Base(at.Filename), at.Line)
			}
		}
	}
}

// collectCounterStructs finds the //lint:atomiccounters-annotated structs
// of the target packages.
func collectCounterStructs(pass *Pass) map[*types.Named]bool {
	out := make(map[*types.Named]bool)
	for _, pkg := range pass.Prog.TargetPackages() {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					if !HasDirective(doc, DirAtomicCounters) {
						continue
					}
					if obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName); ok {
						if named, ok := obj.Type().(*types.Named); ok {
							out[named] = true
						}
					}
				}
			}
		}
	}
	return out
}

// collectFieldAccesses records every selector access to a tracked
// struct's field, classified as atomic (the &x.F operand of a
// sync/atomic call) or plain (anything else).
func collectFieldAccesses(pkg *Package, f *ast.File, tracked map[*types.Named]bool, accesses map[counterField][]fieldAccess) {
	info := pkg.Info
	// The selectors consumed by a sync/atomic call as &x.F.
	atomicArgs := make(map[*ast.SelectorExpr]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := calleeOf(info, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		for _, arg := range call.Args {
			if ue, ok := ast.Unparen(arg).(*ast.UnaryExpr); ok && ue.Op == token.AND {
				if sel, ok := ast.Unparen(ue.X).(*ast.SelectorExpr); ok {
					atomicArgs[sel] = true
				}
			}
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selInfo := info.Selections[sel]
		if selInfo == nil {
			return true
		}
		v, ok := selInfo.Obj().(*types.Var)
		if !ok || !v.IsField() {
			return true
		}
		owner := fieldOwner(selInfo)
		if owner == nil || !tracked[owner] {
			return true
		}
		k := counterField{typ: owner, field: v.Name()}
		accesses[k] = append(accesses[k], fieldAccess{pos: sel.Sel.Pos(), atomic: atomicArgs[sel]})
		return true
	})
}

// fieldOwner resolves the named struct type a field selection goes
// through (unwrapping one pointer).
func fieldOwner(selInfo *types.Selection) *types.Named {
	t := selInfo.Recv()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
