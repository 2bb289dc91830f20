// Command policyfuzz searches the space of CMS-acceptable whitelist
// policies for the configurations that mint the most megaflow masks — a
// SlowFuzz-style (paper ref [5]) complexity-attack search specialised to
// policy injection, and the paper's "how bad can it get" extension.
//
// The fuzzer mutates attack configurations (target field subsets, allow
// values, prefix widths), executes each candidate's covert stream against
// a fresh dataplane carrying a realistic background policy set, and hill
// climbs on the number of masks actually injected. Co-resident policies
// perturb trie divergence depths, so measured fitness differs from the
// analytic w₁·w₂·… prediction — quantifying that gap is the point.
//
//	policyfuzz -budget 200 -seed 7 -top 5
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"net/netip"
	"os"
	"sort"
	"strings"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/cms"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
)

var candidateFields = []flow.FieldID{
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldTPSrc, flow.FieldTPDst,
}

type candidate struct {
	atk     *attack.Attack
	masks   int // measured
	predict int
}

func (c candidate) String() string {
	var parts []string
	for _, t := range c.atk.Fields {
		w := t.Width
		if w == 0 {
			w = t.Field.Bits()
		}
		parts = append(parts, fmt.Sprintf("%s=%#x/%d", t.Field.Name(), t.Allow, w))
	}
	return fmt.Sprintf("masks=%-5d (predicted %-5d) %s", c.masks, c.predict, strings.Join(parts, " "))
}

func main() {
	budget := flag.Int("budget", 120, "candidate evaluations")
	seed := flag.Int64("seed", 1, "PRNG seed")
	top := flag.Int("top", 5, "leaderboard size")
	maxMasks := flag.Int("max", 2048, "skip candidates predicting more masks (keeps runs fast)")
	flag.Parse()

	rng := rand.New(rand.NewSource(*seed))
	var best []candidate

	cur := randomConfig(rng, *maxMasks)
	curFit := evaluate(cur)
	best = append(best, candidate{cur, curFit, cur.PredictedMasks()})

	for i := 1; i < *budget; i++ {
		var next *attack.Attack
		if rng.Intn(4) == 0 {
			next = randomConfig(rng, *maxMasks)
		} else {
			next = mutate(rng, cur, *maxMasks)
		}
		if next.Validate() != nil {
			continue
		}
		fit := evaluate(next)
		best = append(best, candidate{next, fit, next.PredictedMasks()})
		if fit >= curFit { // climb (ties move: plateau exploration)
			cur, curFit = next, fit
		}
	}

	sort.Slice(best, func(i, j int) bool { return best[i].masks > best[j].masks })
	fmt.Printf("policyfuzz: %d candidates evaluated, top %d:\n", *budget, *top)
	seen := map[string]bool{}
	shown := 0
	for _, c := range best {
		s := c.String()
		if seen[s] {
			continue
		}
		seen[s] = true
		fmt.Println(" ", s)
		shown++
		if shown >= *top {
			break
		}
	}
	if len(best) == 0 {
		fmt.Fprintln(os.Stderr, "policyfuzz: no viable candidates")
		os.Exit(1)
	}
}

func randomConfig(rng *rand.Rand, maxMasks int) *attack.Attack {
	for {
		n := 1 + rng.Intn(3)
		perm := rng.Perm(len(candidateFields))
		atk := &attack.Attack{}
		for i := 0; i < n; i++ {
			f := candidateFields[perm[i]]
			atk.Fields = append(atk.Fields, randomField(rng, f))
		}
		if atk.PredictedMasks() <= maxMasks {
			return atk
		}
	}
}

func randomField(rng *rand.Rand, f flow.FieldID) attack.TargetField {
	t := attack.TargetField{Field: f}
	switch f {
	case flow.FieldIPSrc, flow.FieldIPDst:
		t.Allow = rng.Uint64() & 0xffffffff
		t.Width = 1 + rng.Intn(32)
	default:
		t.Allow = uint64(rng.Intn(65536))
		t.Width = 1 + rng.Intn(16)
	}
	return t
}

func mutate(rng *rand.Rand, base *attack.Attack, maxMasks int) *attack.Attack {
	out := &attack.Attack{Fields: append([]attack.TargetField(nil), base.Fields...)}
	switch rng.Intn(3) {
	case 0: // widen or narrow a field
		i := rng.Intn(len(out.Fields))
		t := &out.Fields[i]
		t.Width += rng.Intn(9) - 4
		if t.Width < 1 {
			t.Width = 1
		}
		if t.Width > t.Field.Bits() {
			t.Width = t.Field.Bits()
		}
	case 1: // rechoose an allow value
		i := rng.Intn(len(out.Fields))
		out.Fields[i] = randomField(rng, out.Fields[i].Field)
		out.Fields[i].Width = base.Fields[i].Width
	default: // add or drop a field
		if len(out.Fields) > 1 && rng.Intn(2) == 0 {
			i := rng.Intn(len(out.Fields))
			out.Fields = append(out.Fields[:i], out.Fields[i+1:]...)
		} else {
			have := map[flow.FieldID]bool{}
			for _, t := range out.Fields {
				have[t.Field] = true
			}
			var free []flow.FieldID
			for _, f := range candidateFields {
				if !have[f] {
					free = append(free, f)
				}
			}
			if len(free) > 0 {
				out.Fields = append(out.Fields, randomField(rng, free[rng.Intn(len(free))]))
			}
		}
	}
	if out.PredictedMasks() > maxMasks {
		return base
	}
	return out
}

// evaluate measures the candidate's real fitness: masks injected into a
// dataplane that already carries a victim tenant's policies (the realistic
// background that perturbs trie depths).
func evaluate(atk *attack.Attack) int {
	cluster := cms.NewCluster()
	cluster.SwitchOpts = []dataplane.Option{dataplane.WithoutEMC()}
	if _, err := cluster.AddNode("hv"); err != nil {
		return 0
	}
	if _, err := cluster.DeployPod("victim", "svc", "hv"); err != nil {
		return 0
	}
	attacker, err := cluster.DeployPod("mallory", "probe", "hv")
	if err != nil {
		return 0
	}
	// Background: the victim's own microsegmentation.
	if err := cluster.ApplyPolicy("victim", "svc", &cms.Policy{
		Name: "svc-ingress",
		Ingress: []acl.Entry{
			{Src: netip.MustParsePrefix("10.10.0.0/24"), Proto: 6, DstPort: acl.Port(443)},
			{Src: netip.MustParsePrefix("192.168.7.0/28"), Proto: 6, DstPort: acl.Port(9090)},
		},
	}); err != nil {
		return 0
	}
	atk.DstIP = attacker.IP
	theACL, err := atk.BuildACL()
	if err != nil {
		return 0
	}
	if err := cluster.ApplyPolicy("mallory", "probe", &cms.Policy{
		Name: "fuzzed", Ingress: theACL.Entries, AllowSrcPortFilters: true,
	}); err != nil {
		return 0
	}
	v, err := atk.ExecuteFrames(attacker.Node.Switch, 1, attacker.Port)
	if err != nil {
		return 0
	}
	return v.Injected
}
