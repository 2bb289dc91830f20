package analysis

import (
	"go/ast"
	"go/types"
)

// ClockPurity enforces logical-clock purity: packages annotated
// //lint:deterministic (on the package clause) must not read the wall
// clock or draw from the global math/rand source. Every simulator run in
// this repo is pinned byte-identical per seed; one time.Now or global
// rand call silently breaks that contract. Measurement seams live in
// internal/sim, which is deliberately not annotated.
var ClockPurity = &Analyzer{
	Name: "clockpurity",
	Doc:  "forbid wall clock and global randomness in //lint:deterministic packages",
	Run:  runClockPurity,
}

// wallClockFuncs are the package-level time functions that read or
// schedule against the wall clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// seededRandFuncs are the math/rand constructors that take an explicit
// source or generator and therefore stay deterministic.
var seededRandFuncs = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runClockPurity(pass *Pass) {
	for _, pkg := range pass.Prog.TargetPackages() {
		deterministic := false
		for _, f := range pkg.Files {
			if HasDirective(f.Doc, DirDeterministic) {
				deterministic = true
			}
		}
		if !deterministic {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := calleeOf(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if wallClockFuncs[fn.Name()] {
						pass.Reportf(call.Pos(), "wall clock: time.%s in deterministic package %s (thread the logical clock instead)", fn.Name(), pkg.Types.Name())
					}
				case "math/rand", "math/rand/v2":
					if fn.Type().(*types.Signature).Recv() != nil {
						return true // a method on an explicitly seeded *Rand
					}
					if !seededRandFuncs[fn.Name()] {
						pass.Reportf(call.Pos(), "global randomness: rand.%s in deterministic package %s (use an explicitly seeded generator)", fn.Name(), pkg.Types.Name())
					}
				}
				return true
			})
		}
	}
}
