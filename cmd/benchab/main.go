// Command benchab is the A/B driver of the repo benchmark. It runs
// BENCHMARK.json's command, `bash benchmark/run.sh ... --trace 0`, in two
// trees — a base revision, checked out with `git worktree`, and the working
// tree — interleaved in seed-matched pairs, and judges the working tree
// against the base by BENCHMARK.json's bounds. Each tree runs its own run.sh,
// so each arm measures with the harness it was committed with.
//
//	go run ./cmd/benchab --base HEAD~1 --pairs 10 --seconds 4
//	go run ./cmd/benchab --base main --workload attack8192_flat \
//	    --claim attack8192_flat:heap_mb --record BENCH_pr35.json
//
// Run it from the repo root. Pair p runs seed p on both arms, the
// base first on odd pairs and the head first on even ones, every workload of a
// pair before the next pair begins. The base's worktree is made under
// .bench_build/ and removed at the end; nothing leaves the machine. Written to
// --out:
//
//	raw/NNN-ARM-WORKLOAD.out  each run's standard output as printed
//	collected.jsonl           one record a run (see record)
//	analysis.json             per workload and end-to-end metric: each arm's
//	analysis.md               median and quartiles, the paired delta, wins
//	                          n/N and the verdict (see analyse)
//
// --record writes the settings, every record and the analysis to one JSON
// file as well: the BENCH_pr<N>.json a change commits. The analysis also
// gives, per arm, the address mod 64 of the benchmark binary's hot functions:
// every //lint:hotpath root in the arm's tree, and the inner loops they call.
//
// Exit status: 0 when the analysis accepts the head, 1 when it rejects it, 2
// on a usage error or a run that could not be made or read.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"

	lint "policyinject/internal/analysis"
)

// settings is what the command line asks for.
type settings struct {
	base     string
	pairs    int
	seconds  float64
	work     []string
	claims   []claim
	out      string
	record   string
	baseRev  string
	headRev  string
	baseTree string
	headTree string
}

// innerSymbols are hot functions that no //lint:hotpath marks, whose
// alignment the analysis reports beside the roots': the megaflow sweep, its
// scan loop and the gather that feeds it, and the burst path that calls
// them — the frame pipeline, the run pass and the tier walk.
var innerSymbols = []string{
	"cache.(*Megaflow).scan",
	"cache.(*Megaflow).sweep",
	"cache.(*gathered).load",
	"dataplane.(*Switch).processFrames",
	"dataplane.(*Switch).processBatch",
	"dataplane.(*Switch).walk",
}

// hotSymbols names the functions whose alignment the analysis reports for a
// tree: every //lint:hotpath root its Go files declare, as `go tool nm` names
// them below the import path, then innerSymbols. Test files, testdata and
// dot-directories (.git, the benchmark's build tree) are not read.
func hotSymbols(tree string) ([]string, error) {
	var syms []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(tree, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir():
			if path != tree && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		case !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !lint.HasDirective(fd.Doc, lint.DirHotpath) {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				recv := types.ExprString(fd.Recv.List[0].Type)
				if strings.HasPrefix(recv, "*") {
					recv = "(" + recv + ")"
				}
				name = recv + "." + name
			}
			syms = append(syms, f.Name.Name+"."+name)
		}
		return nil
	})
	return append(syms, innerSymbols...), err
}

func main() {
	s, sp, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	a, err := run(s, sp)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchab:", err)
		os.Exit(2)
	}
	fmt.Print(a.markdown(s.pairs))
	if !a.Accept {
		os.Exit(1)
	}
}

func parseFlags(args []string) (*settings, *spec, error) {
	fs := flag.NewFlagSet("benchab", flag.ContinueOnError)
	s := &settings{}
	fs.StringVar(&s.base, "base", "", "the base revision (required)")
	fs.IntVar(&s.pairs, "pairs", 10, "pairs of runs per workload")
	fs.Float64Var(&s.seconds, "seconds", 0, "measure each run for this long (default: BENCHMARK.json's run_seconds)")
	work := fs.String("workload", "", "comma-separated workloads (default: BENCHMARK.json's)")
	claims := fs.String("claim", "", "comma-separated workload:metric pairs the head claims to improve")
	fs.StringVar(&s.out, "out", filepath.Join(".bench_build", "ab"), "output directory")
	fs.StringVar(&s.record, "record", "", "also write settings, runs and analysis to this JSON file")
	if err := fs.Parse(args); err != nil {
		return nil, nil, err
	}
	if s.base == "" || s.pairs < 1 || s.seconds < 0 || fs.NArg() > 0 {
		return nil, nil, errors.New("usage: benchab --base REV [--pairs N] [--workload W,...] [--seconds S] [--claim W:M,...] [--out DIR] [--record FILE]")
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, nil, fmt.Errorf("run from the repo root: %w", err)
	}
	sp, err := parseSpec(data)
	if err != nil {
		return nil, nil, err
	}
	if s.seconds == 0 {
		s.seconds = sp.RunSeconds
	}
	for _, w := range sp.Workloads {
		s.work = append(s.work, w.Name)
	}
	if *work != "" {
		s.work = strings.Split(*work, ",")
	}
	if *claims != "" {
		for _, c := range strings.Split(*claims, ",") {
			cl, err := parseClaim(c)
			if err != nil {
				return nil, nil, err
			}
			s.claims = append(s.claims, cl)
		}
	}
	return s, sp, nil
}

// run makes the base's worktree, runs the pairs, and writes what it measured
// and the analysis.
func run(s *settings, sp *spec) (*analysis, error) {
	var err error
	if s.headTree, err = git("", "rev-parse", "--show-toplevel"); err != nil {
		return nil, err
	}
	if s.baseRev, err = git(s.headTree, "rev-parse", "--verify", s.base+"^{commit}"); err != nil {
		return nil, err
	}
	if s.headRev, err = git(s.headTree, "rev-parse", "HEAD"); err != nil {
		return nil, err
	}
	if dirty, err := git(s.headTree, "status", "--porcelain", "--untracked-files=no"); err != nil {
		return nil, err
	} else if dirty != "" {
		s.headRev += "+dirty"
	}
	if s.out, err = filepath.Abs(s.out); err != nil {
		return nil, err
	}
	raw := filepath.Join(s.out, "raw")
	if err := os.MkdirAll(raw, 0o755); err != nil {
		return nil, err
	}
	s.baseTree = filepath.Join(s.out, "base")
	_, _ = git(s.headTree, "worktree", "remove", "--force", s.baseTree) // left behind by an interrupted run, if any
	if err := os.RemoveAll(s.baseTree); err != nil {
		return nil, err
	}
	if _, err := git(s.headTree, "worktree", "add", "--detach", s.baseTree, s.baseRev); err != nil {
		return nil, err
	}
	defer func() {
		if _, err := git(s.headTree, "worktree", "remove", "--force", s.baseTree); err != nil {
			fmt.Fprintln(os.Stderr, "benchab:", err)
		}
	}()

	collected, err := os.Create(filepath.Join(s.out, "collected.jsonl"))
	if err != nil {
		return nil, err
	}
	defer collected.Close()
	var recs []record
	n := 0
	for p := 1; p <= s.pairs; p++ {
		arms := []string{"base", "head"}
		if p%2 == 0 {
			arms[0], arms[1] = arms[1], arms[0]
		}
		for _, w := range s.work {
			for order, arm := range arms {
				n++
				r, err := s.runOne(raw, n, p, order, arm, w)
				if err != nil {
					return nil, err
				}
				line, err := json.Marshal(r)
				if err != nil {
					return nil, err
				}
				if _, err := collected.Write(append(line, '\n')); err != nil {
					return nil, err
				}
				recs = append(recs, r)
			}
		}
	}
	if err := collected.Close(); err != nil {
		return nil, err
	}

	a := analyse(sp, recs, s.claims)
	a.Alignment = map[string]map[string]int{}
	for arm, tree := range map[string]string{"base": s.baseTree, "head": s.headTree} {
		if a.Alignment[arm], err = alignment(tree); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(s.out, "analysis.json"), a); err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(s.out, "analysis.md"), []byte(a.markdown(s.pairs)), 0o644); err != nil {
		return nil, err
	}
	if s.record != "" {
		if err := writeJSON(s.record, s.benchRecord(recs, a)); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// runOne runs the benchmark command once in arm's tree and keeps its output.
func (s *settings) runOne(raw string, n, pair, order int, arm, workload string) (record, error) {
	tree, rev := s.headTree, s.headRev
	if arm == "base" {
		tree, rev = s.baseTree, s.baseRev
	}
	seed := uint64(pair)
	cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
		"--seed", strconv.FormatUint(seed, 10), "--seconds", strconv.FormatFloat(s.seconds, 'g', -1, 64), "--trace", "0")
	cmd.Dir = tree
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	name := filepath.Join(raw, fmt.Sprintf("%03d-%s-%s.out", n, arm, workload))
	if werr := os.WriteFile(name, stdout.Bytes(), 0o644); werr != nil {
		return record{}, werr
	}
	// The harness exits 1 on a wrong verdict and still prints its line; the
	// line's correct field carries that, so only a missing line is an error.
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	line, perr := parseRunLine(lines[len(lines)-1])
	if perr != nil {
		return record{}, fmt.Errorf("%s run %d (%s, seed %d): %v; %v; stderr: %s", arm, n, workload, seed, perr, err, lastLines(stderr.String(), 5))
	}
	fmt.Fprintf(os.Stderr, "pair %d/%d %-4s %-18s seed %d:", pair, s.pairs, arm, workload, seed)
	for _, m := range []string{"pkt_ns_p02", "setup_s", "heap_mb"} {
		fmt.Fprintf(os.Stderr, " %s=%.6g", m, line.Metrics[m])
	}
	fmt.Fprintln(os.Stderr)
	return record{Pair: pair, Order: order, Arm: arm, Rev: rev, Workload: workload, Seed: seed,
		Correct: line.Correct, Attempted: line.Attempted, Failed: line.Failed, Metrics: line.Metrics}, nil
}

// alignment reads the addresses of the tree's hot functions from its
// benchmark binary, which run.sh builds into .bench_build/benchmark.
func alignment(tree string) (map[string]int, error) {
	syms, err := hotSymbols(tree)
	if err != nil {
		return nil, fmt.Errorf("hot functions of %s: %w", tree, err)
	}
	cmd := exec.Command("go", "tool", "nm", filepath.Join(tree, ".bench_build", "benchmark"))
	cmd.Dir = tree
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool nm in %s: %w", tree, err)
	}
	return symbolOffsets(out, syms), nil
}

// symbolOffsets picks syms out of `go tool nm` output (address, type, name
// per line) and returns each address mod 64.
func symbolOffsets(nm []byte, syms []string) map[string]int {
	offs := map[string]int{}
	for _, line := range strings.Split(string(nm), "\n") {
		f := strings.Fields(line)
		if len(f) != 3 {
			continue
		}
		for _, sym := range syms {
			if strings.HasSuffix(f[2], "/"+sym) {
				if addr, err := strconv.ParseUint(f[0], 16, 64); err == nil {
					offs[sym] = int(addr % 64)
				}
			}
		}
	}
	return offs
}

// benchRecord is the committed form of one A/B run set.
type benchRecord struct {
	Schema    string    `json:"schema"`
	Base      string    `json:"base"`
	Head      string    `json:"head"`
	Pairs     int       `json:"pairs"`
	Seconds   float64   `json:"seconds"`
	Workloads []string  `json:"workloads"`
	Claims    []string  `json:"claims"`
	Host      string    `json:"host"`
	Runs      []record  `json:"runs"`
	Analysis  *analysis `json:"analysis"`
}

func (s *settings) benchRecord(recs []record, a *analysis) benchRecord {
	claims := []string{}
	for _, c := range s.claims {
		claims = append(claims, c.Workload+":"+c.Metric)
	}
	return benchRecord{
		Schema: "benchab/1", Base: s.baseRev, Head: s.headRev, Pairs: s.pairs,
		Seconds: s.seconds, Workloads: s.work, Claims: claims, Host: host(), Runs: recs, Analysis: a,
	}
}

// host names the hardware the runs were made on.
func host() string {
	h := fmt.Sprintf("%s/%s, %d CPUs, %s", runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version())
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v) + ", " + h
			}
		}
	}
	return h
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// git runs a git command in dir and returns its trimmed standard output.
func git(dir string, args ...string) (string, error) {
	cmd := exec.Command("git", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(stderr.String()))
	}
	return strings.TrimSpace(string(out)), nil
}

func lastLines(s string, n int) string {
	lines := strings.Split(strings.TrimSpace(s), "\n")
	return strings.Join(lines[max(len(lines)-n, 0):], "\n")
}
