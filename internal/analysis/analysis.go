// Package analysis is the project's static-analysis framework: a
// stdlib-only (go/parser, go/ast, go/types — no golang.org/x deps,
// preserving the module's zero-dependency stance) loader plus the five
// project-specific analyzers that turn this repo's core invariants into
// compile-time contracts:
//
//   - hotpathalloc: no heap-allocating constructs on the call graph
//     rooted at //lint:hotpath-annotated functions (the zero-allocation
//     frame hot path);
//   - clockpurity: no wall clock or global randomness in
//     //lint:deterministic packages (byte-identical runs per seed);
//   - lockdiscipline: the *Locked naming convention — a FooLocked method
//     is only called with the receiver's mutex held, and exported
//     non-Locked methods do not touch mutex-guarded fields directly;
//   - counteratomic: every field of a //lint:atomiccounters struct is
//     accessed either always atomically or always plainly, never mixed;
//   - seedplumb: Seed/rng struct fields are threaded from configs or
//     parameters, never initialized from the wall clock.
//
// Analyzers run over a type-checked Program (see Load) and report
// Diagnostics, which the //lint:allow directive can suppress inline.
// cmd/lint is the driver; the CI lint job gates on zero findings.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directive names understood by the framework and its analyzers. A
// directive is a comment of the form //lint:<name> [args] attached to
// the package clause, a type declaration or a function declaration.
const (
	// DirHotpath marks a function as a hot-path root: hotpathalloc walks
	// the static call graph from it.
	DirHotpath = "hotpath"
	// DirColdpath marks a function as an explicit hot/cold boundary:
	// hotpathalloc does not analyze or descend into it. Use it where the
	// hot path hands off to the intentionally expensive slow path.
	DirColdpath = "coldpath"
	// DirDeterministic marks a package (on the package clause doc) as
	// logically clocked: clockpurity forbids wall clock and global
	// randomness in it.
	DirDeterministic = "deterministic"
	// DirAtomicCounters marks a struct type whose fields counteratomic
	// holds to a single access discipline.
	DirAtomicCounters = "atomiccounters"
	// DirSharded marks a mutex-bearing shard-element struct (one shard of
	// a sharded cache): lockdiscipline then flags any access to its
	// guarded fields — from any function, not just exported methods of
	// the type — that is not preceded by a lock acquisition on the same
	// base chain or made from a *Locked function.
	DirSharded = "sharded"
	// DirAllow suppresses one analyzer's diagnostics on the same or the
	// following line: //lint:allow <analyzer> <reason>. The reason is
	// mandatory — a bare allow suppresses nothing.
	DirAllow = "allow"
)

// Diagnostic is one analyzer finding, positioned in the loaded file set.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the file:line:col style compilers use.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check. Run receives a Pass bound to a
// loaded Program and reports findings through it.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass is one analyzer's execution context over a Program.
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program

	diags []Diagnostic
}

// Reportf records a finding at pos. Suppression (//lint:allow) is applied
// after the run, so analyzers never need to know about it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		HotPathAlloc,
		ClockPurity,
		LockDiscipline,
		CounterAtomic,
		SeedPlumb,
	}
}

// Run executes the given analyzers over the program, applies //lint:allow
// suppression, and returns the surviving diagnostics sorted by position.
func (prog *Program) Run(analyzers ...*Analyzer) []Diagnostic {
	allows := prog.allowSites()
	var out []Diagnostic
	for _, az := range analyzers {
		pass := &Pass{Analyzer: az, Prog: prog}
		az.Run(pass)
		for _, d := range pass.diags {
			if allows[allowKey{d.Pos.Filename, d.Pos.Line, az.Name}] ||
				allows[allowKey{d.Pos.Filename, d.Pos.Line - 1, az.Name}] {
				continue
			}
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

// allowKey identifies one //lint:allow site: a suppression applies to the
// named analyzer's diagnostics on its own line and the line below it.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowSites indexes every well-formed //lint:allow directive in the
// loaded files. Malformed directives (missing analyzer or reason)
// suppress nothing.
func (prog *Program) allowSites() map[allowKey]bool {
	sites := make(map[allowKey]bool)
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := directiveArgs(c.Text, DirAllow)
					if !ok {
						continue
					}
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						continue // analyzer plus a reason are both required
					}
					pos := prog.Fset.Position(c.Pos())
					sites[allowKey{pos.Filename, pos.Line, fields[0]}] = true
				}
			}
		}
	}
	return sites
}

// directiveArgs reports whether a comment line is the //lint:<name>
// directive, returning the text after the name.
func directiveArgs(comment, name string) (string, bool) {
	body, ok := strings.CutPrefix(comment, "//lint:"+name)
	if !ok {
		return "", false
	}
	if body == "" {
		return "", true
	}
	if body[0] != ' ' && body[0] != '\t' {
		return "", false // a longer directive name, e.g. hotpath vs hotpathalloc
	}
	return strings.TrimSpace(body), true
}

// HasDirective reports whether the comment group carries //lint:<name>.
func HasDirective(cg *ast.CommentGroup, name string) bool {
	if cg == nil {
		return false
	}
	for _, c := range cg.List {
		if _, ok := directiveArgs(c.Text, name); ok {
			return true
		}
	}
	return false
}

// inspectWithStack walks root like ast.Inspect while maintaining the
// ancestor stack (root first, excluding n itself) for each visited node.
func inspectWithStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}
