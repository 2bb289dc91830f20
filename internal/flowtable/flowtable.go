// Package flowtable implements the OpenFlow-style wildcard rule table the
// slow path evaluates: an ordered set of (match, priority, action) rules.
//
// Per the paper's OVS model, rules may overlap; ties are broken by
// insertion order — "if multiple rules in the flow table match, the one
// added first will be applied". Lookup here is a deliberate straight linear
// scan: it is the semantic reference the optimised classifier (package
// classifier) is differential-tested against.
package flowtable

import (
	"fmt"
	"sort"
	"strings"

	"policyinject/internal/flow"
)

// Verdict is the policy decision a rule renders.
type Verdict uint8

const (
	// Deny drops the packet. The zero value is Deny so that an empty
	// action defaults closed, as a default-deny ACL should.
	Deny Verdict = iota
	// Allow forwards the packet (to Action.OutPort when set).
	Allow
)

func (v Verdict) String() string {
	if v == Allow {
		return "allow"
	}
	return "deny"
}

// Action is what happens to packets matching a rule. Every cached entry and
// every per-packet decision carries one, so the three one-byte fields lead
// and OutPort packs behind them in 8 bytes (between them, padding makes 12).
type Action struct {
	Verdict Verdict
	// Recirc sends the packet through conntrack and re-classifies it
	// with ct_state set (the OVS "ct" action + recirculation). Verdict
	// is ignored for recirculated packets; the second pass decides.
	Recirc bool
	// Commit records the connection in the tracker when this (allow)
	// action fires — the OVS "ct(commit)" action.
	Commit  bool
	OutPort uint32 // output port for Allow; 0 = normal forwarding
}

func (a Action) String() string {
	switch {
	case a.Recirc:
		return "ct(recirc)"
	case a.Verdict == Allow && a.Commit:
		return "allow:ct(commit)"
	case a.Verdict == Allow && a.OutPort != 0:
		return fmt.Sprintf("allow:output=%d", a.OutPort)
	default:
		return a.Verdict.String()
	}
}

// Rule is one wildcard-match entry.
type Rule struct {
	Match    flow.Match
	Priority int // higher wins; ties go to the earlier-installed rule
	Action   Action
	Comment  string // free-form provenance, e.g. the CMS policy name

	seq uint64 // insertion sequence, assigned by Table.Insert
}

// Seq returns the rule's insertion sequence number (0 before insertion).
func (r *Rule) Seq() uint64 { return r.seq }

func (r *Rule) String() string {
	return fmt.Sprintf("priority=%d,%s actions=%s", r.Priority, r.Match.String(), r.Action)
}

// less orders rules by decreasing priority, then increasing insertion
// sequence — the paper's first-added-wins tie-break.
func less(a, b *Rule) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.seq < b.seq
}

// Table is an ordered wildcard rule table. The zero Table is empty and
// ready to use. Table is not safe for concurrent mutation.
type Table struct {
	rules   []*Rule
	nextSeq uint64
}

// Insert adds a copy of r to the table and returns the stored rule. The
// match is normalised (key bits outside the mask cleared).
func (t *Table) Insert(r Rule) *Rule {
	r.Match.Normalize()
	t.nextSeq++
	r.seq = t.nextSeq
	stored := &r
	// Keep the slice sorted: binary search for the insertion point.
	i := sort.Search(len(t.rules), func(i int) bool { return !less(t.rules[i], stored) })
	t.rules = append(t.rules, nil)
	copy(t.rules[i+1:], t.rules[i:])
	t.rules[i] = stored
	return stored
}

// Remove deletes a rule previously returned by Insert, reporting whether it
// was present.
func (t *Table) Remove(r *Rule) bool {
	for i, have := range t.rules {
		if have == r {
			t.rules = append(t.rules[:i], t.rules[i+1:]...)
			return true
		}
	}
	return false
}

// Clear removes every rule.
func (t *Table) Clear() { t.rules = nil }

// Len returns the number of rules.
func (t *Table) Len() int { return len(t.rules) }

// Rules returns the rules in evaluation order (priority desc, then
// insertion order). The returned slice is a copy; the rules are shared.
func (t *Table) Rules() []*Rule {
	out := make([]*Rule, len(t.rules))
	copy(out, t.rules)
	return out
}

// Lookup returns the first rule matching k in evaluation order, or nil.
// This is the reference semantics of the table.
func (t *Table) Lookup(k flow.Key) *Rule {
	for _, r := range t.rules {
		if r.Match.Matches(k) {
			return r
		}
	}
	return nil
}

// String renders the table like `ovs-ofctl dump-flows`, one rule per line.
func (t *Table) String() string {
	var b strings.Builder
	for _, r := range t.rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Validate checks structural invariants: normalised matches and strictly
// increasing sequence numbers within equal priority. It returns the first
// violation found, or nil. Used by tests and by the dpctl tool's
// self-check.
func (t *Table) Validate() error {
	for i, r := range t.rules {
		norm := r.Match
		norm.Normalize()
		if norm.Key != r.Match.Key {
			return fmt.Errorf("rule %d (%s): match not normalised", i, r)
		}
		if i > 0 && less(r, t.rules[i-1]) {
			return fmt.Errorf("rule %d (%s): order violated", i, r)
		}
	}
	return nil
}
