package flowtable

import (
	"math/rand"
	"testing"

	"policyinject/internal/flow"
)

func ruleIPSrc(prefix uint64, plen, prio int, v Verdict) Rule {
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, prefix)
	m.Mask.SetPrefix(flow.FieldIPSrc, plen)
	return Rule{Match: m, Priority: prio, Action: Action{Verdict: v}}
}

func keyIPSrc(ip uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldIPSrc, ip)
	return k
}

func TestLookupPriorityOrder(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 10, Allow)) // 10/8 allow
	tbl.Insert(Rule{Priority: 0})                   // catch-all deny

	if r := tbl.Lookup(keyIPSrc(0x0a636363)); r == nil || r.Action.Verdict != Allow {
		t.Fatalf("10.99.99.99: %v", r)
	}
	if r := tbl.Lookup(keyIPSrc(0x0b000000)); r == nil || r.Action.Verdict != Deny {
		t.Fatalf("11.0.0.0: %v", r)
	}
}

// The paper's overlap semantics: equal priority, first added wins.
func TestFirstAddedWins(t *testing.T) {
	var tbl Table
	first := tbl.Insert(ruleIPSrc(0x0a000000, 8, 5, Allow))
	tbl.Insert(ruleIPSrc(0x0a000000, 7, 5, Deny)) // overlaps, added later

	got := tbl.Lookup(keyIPSrc(0x0a000001))
	if got != first {
		t.Fatalf("lookup returned %v, want the first-added rule", got)
	}
}

func TestHigherPriorityBeatsEarlier(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 1, Allow))
	hi := tbl.Insert(ruleIPSrc(0x0a000000, 8, 9, Deny))
	if got := tbl.Lookup(keyIPSrc(0x0a000001)); got != hi {
		t.Fatalf("lookup = %v, want the high-priority rule", got)
	}
}

func TestLookupMiss(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 1, Allow))
	if got := tbl.Lookup(keyIPSrc(0x0b000000)); got != nil {
		t.Fatalf("lookup = %v, want nil", got)
	}
}

func TestRemove(t *testing.T) {
	var tbl Table
	r1 := tbl.Insert(ruleIPSrc(0x0a000000, 8, 1, Allow))
	r2 := tbl.Insert(Rule{Priority: 0})
	if !tbl.Remove(r1) {
		t.Fatal("Remove failed")
	}
	if tbl.Remove(r1) {
		t.Fatal("double Remove succeeded")
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if got := tbl.Lookup(keyIPSrc(0x0a000001)); got != r2 {
		t.Fatalf("lookup after remove = %v", got)
	}
}

func TestInsertNormalizes(t *testing.T) {
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a0a0a0a) // junk below the /8
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	var tbl Table
	r := tbl.Insert(Rule{Match: m})
	if got := r.Match.Key.Get(flow.FieldIPSrc); got != 0x0a000000 {
		t.Fatalf("stored key = %#x", got)
	}
	if err := tbl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesDisorder(t *testing.T) {
	var tbl Table
	tbl.Insert(Rule{Priority: 1})
	tbl.Insert(Rule{Priority: 2})
	if err := tbl.Validate(); err != nil {
		t.Fatalf("valid table failed validation: %v", err)
	}
	// Break the invariant by hand.
	tbl.rules[0], tbl.rules[1] = tbl.rules[1], tbl.rules[0]
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate missed a priority inversion")
	}
}

// Equal priorities keep insertion order: the earlier rule wins the tie,
// so a later rule placed ahead of it breaks the table.
func TestValidateCatchesSequenceDisorder(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 5, Allow))
	tbl.Insert(ruleIPSrc(0x0a000000, 16, 5, Deny))
	if err := tbl.Validate(); err != nil {
		t.Fatalf("valid table failed validation: %v", err)
	}
	tbl.rules[0], tbl.rules[1] = tbl.rules[1], tbl.rules[0]
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate missed a sequence inversion between equal priorities")
	}
}

// A stored match carries no key bits outside its mask; Insert masks them
// off, so one left set means the table was written around Insert.
func TestValidateCatchesUnnormalisedMatch(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 1, Allow))
	tbl.rules[0].Match.Key.Set(flow.FieldIPSrc, 0x0a0000ff)
	if err := tbl.Validate(); err == nil {
		t.Fatal("Validate missed a key bit outside the mask")
	}
}

func TestStringDump(t *testing.T) {
	var tbl Table
	tbl.Insert(ruleIPSrc(0x0a000000, 8, 100, Allow))
	tbl.Insert(Rule{Priority: 0})
	want := "priority=100,ip_src=10.0.0.0/8 actions=allow\npriority=0,* actions=deny\n"
	if got := tbl.String(); got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
}

func TestActionString(t *testing.T) {
	if got := (Action{Verdict: Allow, OutPort: 3}).String(); got != "allow:output=3" {
		t.Errorf("Action.String() = %q", got)
	}
	if got := (Action{}).String(); got != "deny" {
		t.Errorf("zero Action.String() = %q", got)
	}
}

// Property: lookup result is invariant under insertion order for rules
// with distinct priorities.
func TestLookupOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(10)
		rules := make([]Rule, n)
		for i := range rules {
			plen := rng.Intn(33)
			rules[i] = ruleIPSrc(rng.Uint64()&0xffffffff, plen, i /* distinct prio */, Verdict(rng.Intn(2)))
		}
		var a, b Table
		for _, r := range rules {
			a.Insert(r)
		}
		perm := rng.Perm(n)
		for _, i := range perm {
			b.Insert(rules[i])
		}
		for probe := 0; probe < 50; probe++ {
			k := keyIPSrc(rng.Uint64() & 0xffffffff)
			ra, rb := a.Lookup(k), b.Lookup(k)
			switch {
			case ra == nil && rb == nil:
			case ra == nil || rb == nil:
				t.Fatalf("trial %d: nil disagreement", trial)
			case ra.Priority != rb.Priority || ra.Action != rb.Action:
				t.Fatalf("trial %d: %v vs %v", trial, ra, rb)
			}
		}
	}
}

func TestRulesReturnsEvaluationOrder(t *testing.T) {
	var tbl Table
	tbl.Insert(Rule{Priority: 1, Comment: "a"})
	tbl.Insert(Rule{Priority: 3, Comment: "b"})
	tbl.Insert(Rule{Priority: 3, Comment: "c"})
	got := tbl.Rules()
	want := []string{"b", "c", "a"}
	for i, r := range got {
		if r.Comment != want[i] {
			t.Fatalf("order = [%s %s %s], want %v", got[0].Comment, got[1].Comment, got[2].Comment, want)
		}
	}
}
