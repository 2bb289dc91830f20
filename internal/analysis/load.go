package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Package is one type-checked package of the loaded program.
type Package struct {
	Path  string // import path
	Dir   string // directory the files came from
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// Target marks packages matched by the load patterns, as opposed to
	// module dependencies pulled in for type information. Analyzers
	// discover their directives in target packages.
	Target bool
}

// Program is the loaded, type-checked closure of the requested packages.
type Program struct {
	Fset       *token.FileSet
	Pkgs       []*Package // dependency order (imports precede importers)
	ByPath     map[string]*Package
	ModulePath string
	Root       string // module root directory
}

// TargetPackages returns the packages matched by the load patterns.
func (prog *Program) TargetPackages() []*Package {
	var out []*Package
	for _, p := range prog.Pkgs {
		if p.Target {
			out = append(out, p)
		}
	}
	return out
}

// Load parses and type-checks the packages matched by patterns (Go
// package patterns relative to the module root: "./...", "./internal/...",
// "./internal/cache") plus every module-internal dependency they need.
// dir is any directory inside the module; the module root is found by
// walking up to go.mod. Test files are not loaded: the invariants the
// analyzers enforce are production-code contracts.
func Load(dir string, patterns []string) (*Program, error) {
	root, modPath, err := findModule(dir)
	if err != nil {
		return nil, err
	}
	prog := &Program{
		Fset:       token.NewFileSet(),
		ByPath:     make(map[string]*Package),
		ModulePath: modPath,
		Root:       root,
	}

	targets := make(map[string]bool) // import path -> matched by a pattern
	for _, pat := range patterns {
		dirs, err := expandPattern(root, pat)
		if err != nil {
			return nil, err
		}
		for _, d := range dirs {
			rel, err := filepath.Rel(root, d)
			if err != nil {
				return nil, err
			}
			ip := modPath
			if rel != "." {
				ip = modPath + "/" + filepath.ToSlash(rel)
			}
			targets[ip] = true
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %v", patterns)
	}

	// Parse the closure: targets first, then every module-internal import
	// not yet loaded.
	parsed := make(map[string]*Package)
	queue := make([]string, 0, len(targets))
	for ip := range targets {
		queue = append(queue, ip)
	}
	sort.Strings(queue)
	for len(queue) > 0 {
		ip := queue[0]
		queue = queue[1:]
		if _, ok := parsed[ip]; ok {
			continue
		}
		pkg, err := prog.parsePackage(ip)
		if err != nil {
			return nil, err
		}
		pkg.Target = targets[ip]
		parsed[ip] = pkg
		for _, imp := range packageImports(pkg.Files) {
			if strings.HasPrefix(imp, modPath+"/") || imp == modPath {
				if _, ok := parsed[imp]; !ok {
					queue = append(queue, imp)
				}
			}
		}
	}

	order, err := dependencyOrder(parsed, modPath)
	if err != nil {
		return nil, err
	}
	checker := newTypeChecker(prog)
	for _, ip := range order {
		pkg := parsed[ip]
		if err := checker.check(pkg); err != nil {
			return nil, err
		}
		prog.Pkgs = append(prog.Pkgs, pkg)
		prog.ByPath[ip] = pkg
	}
	return prog, nil
}

// parsePackage parses the non-test files of the package at import path ip.
func (prog *Program) parsePackage(ip string) (*Package, error) {
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, prog.ModulePath), "/")
	pkg := &Package{Path: ip, Dir: filepath.Join(prog.Root, filepath.FromSlash(rel))}
	if err := parseDirInto(prog.Fset, pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

// parseDirInto parses every non-test .go file of pkg.Dir into pkg.Files.
func parseDirInto(fset *token.FileSet, pkg *Package) error {
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		return fmt.Errorf("analysis: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(pkg.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("analysis: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	if len(pkg.Files) == 0 {
		return fmt.Errorf("analysis: no Go files in %s", pkg.Dir)
	}
	return nil
}

// packageImports returns the distinct import paths of a parsed package.
func packageImports(files []*ast.File) []string {
	seen := make(map[string]bool)
	var out []string
	for _, f := range files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[path] {
				continue
			}
			seen[path] = true
			out = append(out, path)
		}
	}
	sort.Strings(out)
	return out
}

// dependencyOrder topologically sorts the parsed module packages so each
// package is type-checked after its module-internal imports.
func dependencyOrder(parsed map[string]*Package, modPath string) ([]string, error) {
	var order []string
	state := make(map[string]int) // 0 unvisited, 1 visiting, 2 done
	var visit func(ip string) error
	visit = func(ip string) error {
		switch state[ip] {
		case 1:
			return fmt.Errorf("analysis: import cycle through %s", ip)
		case 2:
			return nil
		}
		state[ip] = 1
		for _, imp := range packageImports(parsed[ip].Files) {
			if _, ok := parsed[imp]; ok {
				if err := visit(imp); err != nil {
					return err
				}
			} else if strings.HasPrefix(imp, modPath+"/") {
				return fmt.Errorf("analysis: %s imports unloaded module package %s", ip, imp)
			}
		}
		state[ip] = 2
		order = append(order, ip)
		return nil
	}
	paths := make([]string, 0, len(parsed))
	for ip := range parsed {
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if err := visit(ip); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// typeChecker type-checks module packages with a shared importer chain:
// module-internal imports resolve to already-checked packages, everything
// else falls through to the standard library source importer.
type typeChecker struct {
	prog *Program
	std  types.Importer
}

func newTypeChecker(prog *Program) *typeChecker {
	return &typeChecker{prog: prog, std: importer.ForCompiler(prog.Fset, "source", nil)}
}

// Import implements types.Importer over the chain.
func (tc *typeChecker) Import(path string) (*types.Package, error) {
	if pkg, ok := tc.prog.ByPath[path]; ok {
		return pkg.Types, nil
	}
	if path == tc.prog.ModulePath || strings.HasPrefix(path, tc.prog.ModulePath+"/") {
		return nil, fmt.Errorf("module package %s not loaded", path)
	}
	return tc.std.Import(path)
}

func (tc *typeChecker) check(pkg *Package) error {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	var firstErr error
	cfg := types.Config{
		Importer: tc,
		Error: func(err error) {
			if firstErr == nil {
				firstErr = err
			}
		},
	}
	tpkg, err := cfg.Check(pkg.Path, tc.prog.Fset, pkg.Files, info)
	if firstErr != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, firstErr)
	}
	if err != nil {
		return fmt.Errorf("analysis: type-checking %s: %w", pkg.Path, err)
	}
	pkg.Types = tpkg
	pkg.Info = info
	return nil
}

// findModule walks up from dir to the enclosing go.mod, returning the
// module root and module path.
func findModule(dir string) (root, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("analysis: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("analysis: no go.mod above %s", abs)
		}
		d = parent
	}
}

// expandPattern resolves one package pattern to package directories.
func expandPattern(root, pat string) ([]string, error) {
	pat = filepath.ToSlash(pat)
	recursive := false
	if rest, ok := strings.CutSuffix(pat, "/..."); ok {
		recursive, pat = true, rest
	}
	if pat == "" || pat == "." || pat == "./" {
		pat = "."
	}
	base := filepath.Join(root, filepath.FromSlash(strings.TrimPrefix(pat, "./")))
	if st, err := os.Stat(base); err != nil || !st.IsDir() {
		return nil, fmt.Errorf("analysis: pattern %q: no such directory %s", pat, base)
	}
	if !recursive {
		if !hasGoFiles(base) {
			return nil, fmt.Errorf("analysis: no Go files in %s", base)
		}
		return []string{base}, nil
	}
	var dirs []string
	err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		if hasGoFiles(path) {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

// hasGoFiles reports whether dir directly contains non-test Go files.
func hasGoFiles(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		name := e.Name()
		if !e.IsDir() && strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			return true
		}
	}
	return false
}
