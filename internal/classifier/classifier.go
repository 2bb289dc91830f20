// Package classifier implements the slow-path packet classifier of the
// hypervisor switch, modelled on Open vSwitch's lib/classifier: rules are
// grouped into subtables by identical mask, subtables are hash tables over
// masked keys, and per-field prefix tries let the classifier skip subtables
// that cannot match a packet.
//
// Besides the matched rule, every lookup synthesises a megaflow — the
// broadest (key, mask) pair guaranteed to receive the same verdict — by
// recording exactly the bits examined:
//
//   - a trie consult contributes the examined prefix of the field
//     (divergence depth), and
//   - a hash probe of a subtable contributes the subtable's whole mask.
//
// The megaflow is what the fast path caches. Its mask diversity is the
// attack surface studied in the paper: adversarial packets make the trie
// consults contribute prefixes of every possible length, minting one
// distinct mask per length combination.
package classifier

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/trie"
)

// DefaultPrefixFields are the fields with prefix tracking enabled.
//
// Upstream OVS defaults to nw_src/nw_dst only; reproducing the paper's
// published mask counts (512 and 8192) additionally requires
// divergence-depth granularity on the L4 ports, as produced by the
// Calico/Kubernetes datapaths the demo targeted.
var DefaultPrefixFields = []flow.FieldID{
	flow.FieldIPSrc, flow.FieldIPDst, flow.FieldTPSrc, flow.FieldTPDst,
	flow.FieldIPv6SrcHi, flow.FieldIPv6SrcLo, flow.FieldIPv6DstHi, flow.FieldIPv6DstLo,
}

// Config tunes a Classifier.
type Config struct {
	// PrefixFields lists the fields maintained in prefix tries. Nil means
	// DefaultPrefixFields. An explicitly empty, non-nil slice disables
	// prefix tracking entirely (the "no unwildcarding" ablation).
	PrefixFields []flow.FieldID
}

// gate is one trie consult of a subtable, compiled at the subtable's mint:
// the subtable matches a prefix-tracked field with prefix length plen, and
// the gate holds the field's trie and where the field sits in a key, so a
// lookup reads the value off one key word and reveals the examined bits in
// the same word of the megaflow mask, with no field-registry lookup.
type gate struct {
	tr    *trie.Trie
	fmask uint64 // in-word mask of the whole field
	plen  int
	word  uint8 // key word the field lives in
	shift uint8 // right shift that right-aligns the field
	field flow.FieldID
}

// value is the gate's field of k, right-aligned.
func (g *gate) value(k *flow.Key) uint64 { return (k[g.word] & g.fmask) >> g.shift }

// examined is the in-word mask of the field's first n bits.
func (g *gate) examined(n int) uint64 { return g.fmask &^ (g.fmask >> uint(n)) }

type subtable struct {
	mask        flow.Mask
	rules       map[flow.Key][]*flowtable.Rule // masked key -> rules, best first
	maxPriority int
	gates       []gate // trie consults applicable to this subtable
	nRules      int
}

// Classifier is the slow-path rule set. Not safe for concurrent mutation;
// the dataplane serialises upcalls. Lookup only reads, so concurrent
// lookups are safe between mutations.
type Classifier struct {
	cfg       Config
	subtables []*subtable // sorted by maxPriority descending
	byMask    map[flow.Mask]*subtable
	tries     [flow.NumFields]*trie.Trie // nil for a field without prefix tracking
	nRules    int
}

// New returns an empty classifier.
func New(cfg Config) *Classifier {
	if cfg.PrefixFields == nil {
		cfg.PrefixFields = DefaultPrefixFields
	}
	c := &Classifier{
		cfg:    cfg,
		byMask: make(map[flow.Mask]*subtable),
	}
	for _, f := range cfg.PrefixFields {
		c.tries[f] = trie.New(f.Bits())
	}
	return c
}

// NumSubtables returns the number of distinct rule masks.
func (c *Classifier) NumSubtables() int { return len(c.subtables) }

// Insert adds a rule. The rule must already carry its insertion sequence
// (i.e. come from a flowtable.Table) so that the first-added-wins tie-break
// is preserved; Insert panics on a zero sequence to catch misuse early.
func (c *Classifier) Insert(r *flowtable.Rule) {
	if r.Seq() == 0 {
		panic("classifier: rule has no insertion sequence; insert into a flowtable.Table first")
	}
	st := c.byMask[r.Match.Mask]
	if st == nil {
		st = &subtable{
			mask:  r.Match.Mask,
			rules: make(map[flow.Key][]*flowtable.Rule),
		}
		for _, id := range c.cfg.PrefixFields {
			plen, isPrefix := r.Match.Mask.PrefixLen(id)
			if isPrefix && plen > 0 {
				var whole flow.Mask
				whole.SetExact(id)
				word := flow.FieldByID(id).Word
				st.gates = append(st.gates, gate{
					tr:    c.tries[id],
					fmask: whole[word],
					plen:  plen,
					word:  uint8(word),
					shift: uint8(bits.TrailingZeros64(whole[word])),
					field: id,
				})
			}
		}
		c.byMask[r.Match.Mask] = st
		c.subtables = append(c.subtables, st)
	}
	mk := r.Match.Mask.Apply(r.Match.Key)
	bucket := st.rules[mk]
	i := sort.Search(len(bucket), func(i int) bool { return !better(bucket[i], r) })
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = r
	st.rules[mk] = bucket
	st.nRules++
	if r.Priority > st.maxPriority || st.nRules == 1 {
		st.maxPriority = r.Priority
	}
	c.nRules++

	// Feed the tries: one prefix per gate of the subtable.
	for i := range st.gates {
		g := &st.gates[i]
		g.tr.Insert(g.value(&r.Match.Key), g.plen)
	}
	c.resort()
}

// Remove deletes a rule previously inserted, reporting whether it was
// present.
func (c *Classifier) Remove(r *flowtable.Rule) bool {
	st := c.byMask[r.Match.Mask]
	if st == nil {
		return false
	}
	mk := r.Match.Mask.Apply(r.Match.Key)
	bucket := st.rules[mk]
	found := -1
	for i, have := range bucket {
		if have == r {
			found = i
			break
		}
	}
	if found < 0 {
		return false
	}
	bucket = append(bucket[:found], bucket[found+1:]...)
	if len(bucket) == 0 {
		delete(st.rules, mk)
	} else {
		st.rules[mk] = bucket
	}
	st.nRules--
	c.nRules--
	for i := range st.gates {
		g := &st.gates[i]
		g.tr.Remove(g.value(&r.Match.Key), g.plen)
	}
	if st.nRules == 0 {
		delete(c.byMask, st.mask)
		for i, have := range c.subtables {
			if have == st {
				c.subtables = append(c.subtables[:i], c.subtables[i+1:]...)
				break
			}
		}
	} else {
		st.maxPriority = 0
		first := true
		for _, b := range st.rules {
			for _, rr := range b {
				if first || rr.Priority > st.maxPriority {
					st.maxPriority = rr.Priority
					first = false
				}
			}
		}
		c.resort()
	}
	return true
}

func (c *Classifier) resort() {
	sort.SliceStable(c.subtables, func(i, j int) bool {
		return c.subtables[i].maxPriority > c.subtables[j].maxPriority
	})
}

// better reports whether rule a takes precedence over rule b: higher
// priority first, then earlier installation.
func better(a, b *flowtable.Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Seq() < b.Seq()
}

// Stats describes the work one lookup performed, for the benchmark
// harness.
type Stats struct {
	SubtablesProbed  int // hash probes executed
	SubtablesSkipped int // subtables skipped via trie gates
	TrieConsults     int // individual trie lookups
}

// Result is the outcome of a classifier lookup.
type Result struct {
	// Rule is the winning rule, or nil when nothing matched.
	Rule *flowtable.Rule
	// Megaflow is the widest match guaranteed to yield the same rule for
	// every key it covers; ready to be installed into the fast-path cache.
	// On a total miss it covers the examined bits proving the miss.
	Megaflow flow.Match
	Stats    Stats
}

// Lookup classifies k and synthesises the megaflow. The megaflow's mask
// is built in place: each gate ORs the bits its trie examined into the
// field's word, each probed subtable ORs its mask in.
func (c *Classifier) Lookup(k flow.Key) (res Result) {
	wc := &res.Megaflow.Mask
	var best *flowtable.Rule

	for _, st := range c.subtables {
		if best != nil && best.Priority > st.maxPriority {
			break // sorted order: nothing better can follow
		}
		skip := false
		for i := range st.gates {
			g := &st.gates[i]
			tr := g.tr.Lookup(g.value(&k), g.plen)
			res.Stats.TrieConsults++
			wc[g.word] |= g.examined(tr.CheckBits)
			if !tr.CanMatch {
				skip = true
				break
			}
		}
		if skip {
			res.Stats.SubtablesSkipped++
			continue
		}
		res.Stats.SubtablesProbed++
		var mk flow.Key
		for w := range mk {
			wc[w] |= st.mask[w]
			mk[w] = k[w] & st.mask[w]
		}
		if bucket := st.rules[mk]; len(bucket) > 0 && (best == nil || better(bucket[0], best)) {
			best = bucket[0] // bucket is ordered best-first
		}
	}

	res.Rule = best
	for w := range k {
		res.Megaflow.Key[w] = k[w] & wc[w]
	}
	return res
}

// String summarises the classifier state: one line per subtable.
func (c *Classifier) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "classifier: %d rules in %d subtables\n", c.nRules, len(c.subtables))
	for _, st := range c.subtables {
		gates := make([]string, 0, len(st.gates))
		for _, g := range st.gates {
			gates = append(gates, fmt.Sprintf("%s/%d", g.field.Name(), g.plen))
		}
		fmt.Fprintf(&b, "  mask[%d rules, maxprio %d, tries: %s]\n",
			st.nRules, st.maxPriority, strings.Join(gates, ","))
	}
	return b.String()
}
