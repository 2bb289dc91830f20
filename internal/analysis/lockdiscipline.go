package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// LockDiscipline enforces the *Locked naming convention on types that
// carry a sync.Mutex or sync.RWMutex field:
//
//   - a method named FooLocked asserts "my receiver's mutex is held":
//     calling it is only legal from another *Locked method of the same
//     type (on the same receiver) or lexically after <recv>.<mu>.Lock()
//     / RLock() in the calling function;
//   - a *Locked method must not acquire its own receiver's mutex — that
//     is a self-deadlock by convention;
//   - an exported non-Locked method must not touch the fields the mutex
//     guards (the fields declared after it in the struct, the Go
//     "mu guards fields below" convention) without locking first;
//   - for a //lint:sharded struct (one shard element of a sharded
//     cache), the guarded-field rule hardens to every function, exported
//     or not, method or not: cross-shard state may only be touched
//     lexically after <shard>.<mu>.Lock()/RLock() on the same base
//     chain, or from a *Locked function whose caller holds the shard
//     lock. Dynamic bases (sm.shards[i].f) render as "" and escape the
//     lexical check — take a named handle (sh := &sm.shards[i]) so the
//     discipline is visible, which the sharded wrappers do throughout.
//
// The analysis is lexical, as documented in the README: it checks the
// convention, not every aliasing path — which is exactly what makes it
// cheap enough to gate every PR.
var LockDiscipline = &Analyzer{
	Name: "lockdiscipline",
	Doc:  "enforce the *Locked naming convention against mutex-bearing receivers",
	Run:  runLockDiscipline,
}

// lockedType describes one struct type with a mutex field.
type lockedType struct {
	named   *types.Named
	muField string
	guarded map[string]bool // fields declared after the mutex
	sharded bool            // //lint:sharded: guarded-field rule applies to every function
}

func runLockDiscipline(pass *Pass) {
	types_ := collectLockedTypes(pass)
	if len(types_) == 0 {
		return
	}
	for _, pkg := range pass.Prog.TargetPackages() {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkLockFunc(pass, pkg, fd, types_)
			}
		}
	}
}

// collectLockedTypes finds every target-package struct with a mutex field
// and records which fields it guards.
func collectLockedTypes(pass *Pass) map[*types.Named]*lockedType {
	out := make(map[*types.Named]*lockedType)
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
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					obj, ok := pkg.Info.Defs[ts.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := obj.Type().(*types.Named)
					if !ok {
						continue
					}
					doc := ts.Doc
					if doc == nil {
						doc = gd.Doc
					}
					lt := &lockedType{
						named:   named,
						guarded: make(map[string]bool),
						sharded: HasDirective(doc, DirSharded),
					}
					for _, field := range st.Fields.List {
						ft := pkg.Info.TypeOf(field.Type)
						isMutex := ft != nil && (ft.String() == "sync.Mutex" || ft.String() == "sync.RWMutex")
						for _, name := range field.Names {
							switch {
							case isMutex && lt.muField == "":
								lt.muField = name.Name
							case lt.muField != "":
								lt.guarded[name.Name] = true
							}
						}
					}
					if lt.muField != "" {
						out[named] = lt
					}
				}
			}
		}
	}
	return out
}

// namedOrigin resolves t, through one pointer, to the named type as
// declared: an instantiation such as shard[*EMC] resolves to the generic
// shard[C] that carries the directives and the guarded-field list. Nil
// when t is not a named type.
func namedOrigin(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return named.Origin()
}

// receiverType resolves a method's receiver to its named type.
func receiverType(info *types.Info, fd *ast.FuncDecl) *types.Named {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return nil
	}
	return namedOrigin(info.TypeOf(fd.Recv.List[0].Type))
}

// lockedName reports whether a method name claims the convention.
func lockedName(name string) bool {
	return strings.HasSuffix(name, "Locked") && name != "Locked"
}

// checkLockFunc applies the three rules to one function body.
func checkLockFunc(pass *Pass, pkg *Package, fd *ast.FuncDecl, lts map[*types.Named]*lockedType) {
	info := pkg.Info
	recvNamed := receiverType(info, fd)
	recvLT := lts[recvNamed]
	isLocked := recvLT != nil && lockedName(fd.Name.Name)
	recvName := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 && len(fd.Recv.List[0].Names) > 0 {
		recvName = fd.Recv.List[0].Names[0].Name
	}

	// Pass 1: the positions where each base expression acquires its mutex.
	lockPos := make(map[string][]ast.Node)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		muSel, ok := ast.Unparen(sel.X).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		base, lt := guardedBase(info, muSel, lts)
		if lt == nil || muSel.Sel.Name != lt.muField {
			return true
		}
		lockPos[base] = append(lockPos[base], call)
		if isLocked && base == recvName && lts[recvNamed] == lt {
			pass.Reportf(call.Pos(), "%s.%s acquires its own receiver's mutex inside *Locked method %s (the convention says the caller holds it)", base, lt.muField, fd.Name.Name)
		}
		return true
	})
	heldBefore := func(base string, pos ast.Node) bool {
		for _, l := range lockPos[base] {
			if l.Pos() < pos.Pos() {
				return true
			}
		}
		return false
	}

	// Pass 2: calls to *Locked methods and guarded-field accesses.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selInfo := info.Selections[sel]
		if selInfo == nil {
			return true
		}
		base := exprChain(sel.X)
		switch obj := selInfo.Obj().(type) {
		case *types.Func:
			if !lockedName(obj.Name()) {
				return true
			}
			callee, lt := methodOwner(obj, lts)
			if lt == nil {
				return true
			}
			if isLocked && base == recvName && callee == recvNamed {
				return true // Locked-to-Locked on the same receiver
			}
			if base != "" && heldBefore(base, sel) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "call to %s.%s without holding %s.%s (call it from a *Locked method or after %s.%s.Lock())",
				base, obj.Name(), base, lt.muField, base, lt.muField)
		case *types.Var:
			if !obj.IsField() {
				return true
			}
			if lt := shardedOwner(info, sel, lts); lt != nil && lt.guarded[obj.Name()] {
				if lockedName(fd.Name.Name) {
					return true // the caller vouches for the shard lock
				}
				if base == "" {
					return true // dynamic base (sm.shards[i].f): outside the lexical check
				}
				if heldBefore(base, sel) {
					return true
				}
				pass.Reportf(sel.Sel.Pos(), "%s touches sharded field %s.%s, guarded by %s.%s, without locking (take the shard lock first or do it from a *Locked function)",
					fd.Name.Name, base, obj.Name(), base, lt.muField)
				return true
			}
			if recvLT == nil || base != recvName || recvName == "" {
				return true
			}
			if !recvLT.guarded[obj.Name()] || isLocked || !ast.IsExported(fd.Name.Name) {
				return true
			}
			if heldBefore(base, sel) {
				return true
			}
			pass.Reportf(sel.Sel.Pos(), "exported method %s touches %s.%s, guarded by %s.%s, without locking (lock first or move the access into a *Locked method)",
				fd.Name.Name, base, obj.Name(), base, recvLT.muField)
		}
		return true
	})
}

// methodOwner resolves which tracked type a *Locked method belongs to.
func methodOwner(fn *types.Func, lts map[*types.Named]*lockedType) (*types.Named, *lockedType) {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil, nil
	}
	named := namedOrigin(sig.Recv().Type())
	if named == nil {
		return nil, nil
	}
	return named, lts[named]
}

// shardedOwner resolves the base of a field selection to a tracked
// //lint:sharded type, or nil when the base is not one.
func shardedOwner(info *types.Info, sel *ast.SelectorExpr, lts map[*types.Named]*lockedType) *lockedType {
	lt := lts[namedOrigin(info.TypeOf(sel.X))]
	if lt == nil || !lt.sharded {
		return nil
	}
	return lt
}

// guardedBase resolves the base expression of a <base>.<mu> selector to
// its rendered chain and the tracked type of <base>.
func guardedBase(info *types.Info, muSel *ast.SelectorExpr, lts map[*types.Named]*lockedType) (string, *lockedType) {
	lt := lts[namedOrigin(info.TypeOf(muSel.X))]
	if lt == nil {
		return "", nil
	}
	return exprChain(muSel.X), lt
}

// exprChain renders a selector chain of identifiers ("r", "tg.t") for
// lexical base matching; anything more dynamic renders as "".
func exprChain(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		base := exprChain(e.X)
		if base == "" {
			return ""
		}
		return fmt.Sprintf("%s.%s", base, e.Sel.Name)
	}
	return ""
}
