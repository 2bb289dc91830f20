package analysis

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
)

// goldenCases pins the exact findings each analyzer must produce on its
// seeded-bad fixture package under testdata/src/<analyzer>, in position
// order, rendered as "file.go:line: message". A fixture construct the
// analyzer misses, an extra finding, a drifted message or a broken
// //lint:allow all fail the diff.
var goldenCases = map[string][]string{
	"hotpathalloc": nil, // filled below; split out for length
	"clockpurity": {
		"clock.go:14: wall clock: time.Now in deterministic package det (thread the logical clock instead)",
		"clock.go:15: wall clock: time.Since in deterministic package det (thread the logical clock instead)",
		"randsrc.go:8: global randomness: rand.Int63 in deterministic package det (use an explicitly seeded generator)",
	},
	"lockdiscipline": {
		"lock.go:18: t.mu acquires its own receiver's mutex inside *Locked method flushLocked (the convention says the caller holds it)",
		"lock.go:25: call to t.growLocked without holding t.mu (call it from a *Locked method or after t.mu.Lock())",
		"shard.go:26: Len touches sharded field sh.n, guarded by sh.mu, without locking (take the shard lock first or do it from a *Locked function)",
		"shard.go:34: drain touches sharded field sh.n, guarded by sh.mu, without locking (take the shard lock first or do it from a *Locked function)",
		"shard.go:71: Sizes touches sharded field sh.c, guarded by sh.mu, without locking (take the shard lock first or do it from a *Locked function)",
		"shard.go:78: child touches sharded field s.c, guarded by s.mu, without locking (take the shard lock first or do it from a *Locked function)",
		"stats.go:14: exported method Hits touches s.hits, guarded by s.mu, without locking (lock first or move the access into a *Locked method)",
	},
	"counteratomic": {
		"counters.go:24: plain access to Stats.Hits, which is accessed atomically at counters.go:18 (pick one discipline for the field)",
		"gauges.go:22: plain access to Gauges.Depth, which is accessed atomically at gauges.go:15 (pick one discipline for the field)",
	},
	"seedplumb": {
		"rng.go:18: seed field rng derived from global math/rand (rand.Int63); thread it from config or a parameter",
		"seed.go:25: seed field Seed derived from wall clock (time.Now); thread it from config or a parameter",
		"seed.go:30: seed field Seed derived from wall clock (time.Now); thread it from config or a parameter",
	},
}

func init() {
	goldenCases["hotpathalloc"] = []string{
		"cold.go:13: new allocates (hot path via Drain)",
		"cold.go:33: new allocates (hot path via Drain2)",
		"hot.go:16: unamortized make (guard growth with a cap check, or hoist the buffer to reusable scratch) (hot path via Process)",
		"hot.go:17: new allocates (hot path via Process)",
		"hot.go:19: append grows a function-local slice per call (reuse caller-owned or struct scratch instead) (hot path via Process)",
		"hot.go:20: map literal allocates (hot path via Process)",
		"hot.go:21: map write can grow buckets (hot path via Process)",
		"hot.go:22: address of composite literal escapes to the heap (hot path via Process)",
		"hot.go:23: fmt.Sprintf allocates (formatting boxes its operands) (hot path via Process)",
		"hot.go:35: closure captures \"n\" and allocates per call (hot path via Process)",
		"hot.go:42: argument boxes a int into an interface parameter (hot path via Process)",
		"hot.go:57: assertion to interface type hot.runner can allocate in the runtime's type-assertion cache (resolve it once, off the hot path) (hot path via Process)",
		"hot.go:66: assertion to interface type hot.runner can allocate in the runtime's type-assertion cache (resolve it once, off the hot path) (hot path via Process)",
		"hot.go:66: assertion to interface type fmt.Stringer can allocate in the runtime's type-assertion cache (resolve it once, off the hot path) (hot path via Process)",
	}
}

// TestGoldenFixtures runs each analyzer over its own seeded-bad package
// and diffs the findings against the pinned expectations.
func TestGoldenFixtures(t *testing.T) {
	byName := make(map[string]*Analyzer)
	for _, az := range Analyzers() {
		byName[az.Name] = az
	}
	for name, want := range goldenCases {
		t.Run(name, func(t *testing.T) {
			az := byName[name]
			if az == nil {
				t.Fatalf("no analyzer named %q", name)
			}
			dir := filepath.Join("testdata", "src", name)
			prog, err := LoadDir(dir)
			if err != nil {
				t.Fatalf("LoadDir(%s): %v", dir, err)
			}
			var got []string
			for _, d := range prog.Run(az) {
				got = append(got, fmt.Sprintf("%s:%d: %s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Message))
			}
			if diff := diffLines(want, got); diff != "" {
				t.Errorf("findings mismatch (-want +got):\n%s", diff)
			}
		})
	}
}

// TestCorpusIsBad pins the acceptance property that the corpus as a
// whole is dirty: every fixture package yields at least one finding when
// the full suite runs, so a silently broken loader cannot fake a pass.
func TestCorpusIsBad(t *testing.T) {
	for name := range goldenCases {
		prog, err := LoadDir(filepath.Join("testdata", "src", name))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", name, err)
		}
		if n := len(prog.Run(Analyzers()...)); n == 0 {
			t.Errorf("fixture %s: full suite found nothing; the corpus must stay bad", name)
		}
	}
}

// diffLines renders a minimal line diff of two string slices.
func diffLines(want, got []string) string {
	if len(want) == len(got) {
		same := true
		for i := range want {
			if want[i] != got[i] {
				same = false
				break
			}
		}
		if same {
			return ""
		}
	}
	var b strings.Builder
	for _, w := range want {
		fmt.Fprintf(&b, "-%s\n", w)
	}
	for _, g := range got {
		fmt.Fprintf(&b, "+%s\n", g)
	}
	return b.String()
}
