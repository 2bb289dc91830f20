// The public-surface rule: every exported func, method and type of a
// library package has a caller in a non-test file. A symbol only tests
// reach is surface nobody uses; it moves into a _test.go file of its
// package or is deleted. The few kept on purpose are named in
// exportAllowlist, each with its reason.
package policyinject_test

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
	"testing"

	"policyinject/internal/analysis"
)

// exportAllowlist names the exported symbols kept without a non-test
// caller, as "pkg.Name" or "pkg.Type.Method", each with the reason it
// stays. An entry with no reason, or one whose symbol has since found a
// caller (or is gone), fails the check.
var exportAllowlist = map[string]string{
	// Seams kept on purpose: the key-level entry, the synchronous
	// maintenance round and the locked attachment for drivers that sweep
	// beside traffic.
	"dataplane.Switch.ProcessKey":          "the one key-level seam into the switch; tests drive policies and caches through it",
	"dataplane.Switch.RunRevalidator":      "runs one maintenance round synchronously, for drivers without a revalidator",
	"revalidator.Revalidator.AttachLocked": "attaches an unsharded target swept under the driver's lock, concurrent with traffic",

	// Reserved for mask provenance: which tenant minted each mask.
	"guard.MaskLedger.Owner": "mask provenance reads the minting tenant of each scan row from the ledger",

	// The private per-PMD pool (per-core EMC, SMC and megaflow behind
	// RSS), which is to become the one multi-core model with a pack caller.
	"dataplane.NewPMDPool":               "the private per-PMD pool, kept as the multi-core model",
	"dataplane.PMDPool.Steer":            "the private pool's RSS steering",
	"dataplane.PMDPool.ProcessFrames":    "the private pool's burst ingress",
	"dataplane.PMDPool.MasksPerPMD":      "the private pool's per-core mask counts",
	"revalidator.Revalidator.AttachPool": "attaches each PMD of a pool as its own dump shard",

	// Reference semantics other packages' tests compare against.
	"flowtable.Table.Lookup": "first-match reference semantics the classifier and datapath differentials check against",
	"attack.Attack.Keys":     "the covert stream as keys, the reference attack.Frames renders and key-level tests replay",

	// Cross-package test helpers that cannot move: the cache packages'
	// batch tests seed and read burst miss bitmaps through them.
	"burst.Bitmap.Test":   "reads one miss bit in the cache packages' batch tests",
	"burst.Bitmap.SetAll": "marks a whole burst missed in the cache packages' batch tests",
}

func TestExportsHaveCallers(t *testing.T) {
	prog, err := analysis.Load(".", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range checkExports(prog, exportAllowlist) {
		t.Error(problem)
	}
}

// TestExportsCheckerCatchesViolations runs the check on a fixture module
// (testdata/exports) seeded with one case of each kind: what it must flag,
// what it must let through, and the allowlist entries it must refuse.
func TestExportsCheckerCatchesViolations(t *testing.T) {
	prog, err := analysis.Load("testdata/exports", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	got := checkExports(prog, map[string]string{
		"lib.Kept":        "kept on purpose",
		"lib.Stale":       "main calls it now",
		"lib.Unexplained": " ",
		"lib.Gone":        "deleted since",
	})
	report := strings.Join(got, "\n")
	for _, tc := range []struct {
		name    string
		problem string // a problem line starts with it
		flagged bool
	}{
		{"test_only_func", "lib.TestOnly has no caller outside tests", true},
		{"test_only_method", "lib.Square.Perimeter has no caller outside tests", true},
		{"test_only_type", "lib.Orphan has no caller outside tests", true},
		{"self_recursive_func", "lib.Countdown has no caller outside tests", true},
		{"interface_method", "lib.Square.Area ", false},
		{"string_method", "lib.Square.String ", false},
		{"allowlisted_func", "lib.Kept ", false},
		{"stale_entry", "allowlist: lib.Stale now has a caller; drop its entry", true},
		{"entry_without_reason", "allowlist: lib.Unexplained has no reason", true},
		{"entry_naming_nothing", "allowlist: lib.Gone names no exported symbol", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := 0
			for _, p := range got {
				if strings.HasPrefix(p, tc.problem) {
					n++
				}
			}
			switch {
			case tc.flagged && n != 1:
				t.Errorf("want one problem %q, got %d in:\n%s", tc.problem, n, report)
			case !tc.flagged && n != 0:
				t.Errorf("want no problem %q, got %d in:\n%s", tc.problem, n, report)
			}
		})
	}
	// Nothing else in the fixture is flagged: New, Shape, Square and the
	// symbols of package main all have callers or are exempt.
	if len(got) != 7 {
		t.Fatalf("got %d problems, want 7:\n%s", len(got), report)
	}
}

// checkExports reports every exported func, method and type of a
// non-main package in prog that no non-test file uses, and every
// allowlist entry that has no reason or no longer names such a symbol.
// prog holds non-test files only, so any use it records is a non-test
// use. A use inside the symbol's own declaration does not count: a
// recursive call, or a type named by its own methods. A method is
// exempt when it satisfies an interface its type can be used as: String
// and Error, which fmt reaches, or the method of any interface a
// non-test value, parameter or result of the program has as its type.
func checkExports(prog *analysis.Program, allow map[string]string) []string {
	used := make(map[types.Object]bool)
	ifaces := make(map[*types.Interface]bool)
	for _, pkg := range prog.Pkgs {
		for _, obj := range pkg.Info.Uses {
			collectInterfaces(obj.Type(), ifaces, make(map[types.Type]bool))
		}
		for _, tv := range pkg.Info.Types {
			if !tv.IsType() {
				collectInterfaces(tv.Type, ifaces, make(map[types.Type]bool))
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				self := declOwners(pkg.Info, decl)
				ast.Inspect(decl, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if obj := origin(pkg.Info.Uses[id]); obj != nil && !self[obj] {
							used[obj] = true
						}
					}
					return true
				})
			}
		}
	}

	reached := viaInterfaces(prog, ifaces)
	declared := make(map[string]types.Object)
	var problems []string
	for _, pkg := range prog.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				for _, obj := range exportedDecls(pkg.Info, decl) {
					key := exportKey(obj)
					declared[key] = obj
					if used[obj] || reached[obj] || isStringer(obj) {
						continue
					}
					if _, ok := allow[key]; ok {
						continue
					}
					problems = append(problems, fmt.Sprintf("%s has no caller outside tests (%s)",
						key, prog.Fset.Position(obj.Pos())))
				}
			}
		}
	}
	for key, reason := range allow {
		obj, ok := declared[key]
		switch {
		case !ok:
			problems = append(problems, fmt.Sprintf("allowlist: %s names no exported symbol", key))
		case used[obj] || reached[obj] || isStringer(obj):
			problems = append(problems, fmt.Sprintf("allowlist: %s now has a caller; drop its entry", key))
		}
		if strings.TrimSpace(reason) == "" {
			problems = append(problems, fmt.Sprintf("allowlist: %s has no reason", key))
		}
	}
	sort.Strings(problems)
	return problems
}

// exportedDecls returns the exported funcs, methods and types decl declares.
func exportedDecls(info *types.Info, decl ast.Decl) []types.Object {
	var out []types.Object
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() {
			out = append(out, info.Defs[d.Name])
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok && ts.Name.IsExported() {
				out = append(out, info.Defs[ts.Name])
			}
		}
	}
	return out
}

// declOwners is the set of objects whose own declaration decl is: the
// func, plus the receiver's type for a method; the types of a type decl.
func declOwners(info *types.Info, decl ast.Decl) map[types.Object]bool {
	self := make(map[types.Object]bool)
	switch d := decl.(type) {
	case *ast.FuncDecl:
		fn := info.Defs[d.Name].(*types.Func)
		self[fn] = true
		if recv := fn.Signature().Recv(); recv != nil {
			self[typeNameOf(recv.Type())] = true
		}
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			if ts, ok := spec.(*ast.TypeSpec); ok {
				self[info.Defs[ts.Name]] = true
			}
		}
	}
	return self
}

// exportKey names obj as the allowlist does: "pkg.Name" or "pkg.Type.Method".
func exportKey(obj types.Object) string {
	name := obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Signature().Recv(); recv != nil {
			name = typeNameOf(recv.Type()).Name() + "." + name
		}
	}
	return obj.Pkg().Name() + "." + name
}

// viaInterfaces returns the methods the program's named types supply to
// the interfaces in ifaces they implement, promoted methods included.
func viaInterfaces(prog *analysis.Program, ifaces map[*types.Interface]bool) map[types.Object]bool {
	reached := make(map[types.Object]bool)
	for _, pkg := range prog.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for iface := range ifaces {
				if !types.Implements(ptr, iface) {
					continue
				}
				for i := 0; i < iface.NumMethods(); i++ {
					m, _, _ := types.LookupFieldOrMethod(ptr, false, iface.Method(i).Pkg(), iface.Method(i).Name())
					reached[origin(m)] = true
				}
			}
		}
	}
	return reached
}

// isStringer reports whether obj is a String or Error method, which fmt
// reaches through an interface no program code names.
func isStringer(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Signature().Recv() != nil && (fn.Name() == "String" || fn.Name() == "Error") &&
		types.TypeString(fn.Signature(), nil) == "func() string"
}

// collectInterfaces adds every method-bearing interface reachable from t
// through signatures, pointers and containers.
func collectInterfaces(t types.Type, out map[*types.Interface]bool, seen map[types.Type]bool) {
	if t == nil || seen[t] {
		return
	}
	seen[t] = true
	switch t := t.(type) {
	case *types.Named:
		if iface, ok := t.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			out[iface] = true
		}
	case *types.Interface:
		if t.NumMethods() > 0 {
			out[t] = true
		}
	case *types.Signature:
		for i := 0; i < t.Params().Len(); i++ {
			collectInterfaces(t.Params().At(i).Type(), out, seen)
		}
		for i := 0; i < t.Results().Len(); i++ {
			collectInterfaces(t.Results().At(i).Type(), out, seen)
		}
	case *types.Pointer:
		collectInterfaces(t.Elem(), out, seen)
	case *types.Slice:
		collectInterfaces(t.Elem(), out, seen)
	case *types.Array:
		collectInterfaces(t.Elem(), out, seen)
	case *types.Map:
		collectInterfaces(t.Key(), out, seen)
		collectInterfaces(t.Elem(), out, seen)
	case *types.Chan:
		collectInterfaces(t.Elem(), out, seen)
	}
}

// typeNameOf returns the type name behind t, through one pointer and
// any instantiation; nil for an unnamed type.
func typeNameOf(t types.Type) types.Object {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Origin().Obj()
	}
	return nil
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
