// Package baseline implements the flow-cache-less soft switch the paper
// cites as a mitigation direction (ref [4], ESWITCH-style dataplane
// specialisation): every packet is classified directly against the
// compiled rule set, with no microflow or megaflow cache.
//
// Two matcher variants are provided:
//
//   - Direct: rules grouped into one hash table per distinct rule mask —
//     the same tuple space as the slow path, but over the *policy's* few
//     masks rather than the attacker-minted megaflow masks. Per-packet
//     cost is a small constant decided at compile time, which is the whole
//     point: traffic history cannot change the data structure, so policy
//     injection has nothing to poison.
//   - Linear: a straight first-match scan, the semantic reference.
//
// The trade-off the paper's demo discussion raises is visible in the
// benches: the baseline gives up the near-free EMC hits of cached OVS on
// friendly traffic, in exchange for immunity to the attack.
package baseline

import (
	"fmt"
	"sort"

	"policyinject/internal/cache"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// Mode selects the matcher implementation.
type Mode uint8

const (
	// Direct is the hash-per-rule-mask matcher (default).
	Direct Mode = iota
	// Linear is the straight scan reference.
	Linear
)

// Config assembles a baseline switch.
type Config struct {
	Name string
	Mode Mode
}

type subtable struct {
	mask        flow.Mask
	rules       map[flow.Key][]*flowtable.Rule
	maxPriority int
	nRules      int
}

// Switch is the cache-less dataplane. It implements the same ProcessKey
// and frame-first ProcessFrames contracts as dataplane.Switch so the
// simulator can drive either.
type Switch struct {
	cfg   Config
	table flowtable.Table

	subtables []*subtable
	byMask    map[flow.Mask]*subtable

	counters dataplane.Counters

	oneFrame dataplane.FrameBatch // scalar Process's one-frame batch
	oneOut   []dataplane.Decision
}

// New builds a baseline switch.
func New(cfg Config) *Switch {
	return &Switch{cfg: cfg, byMask: make(map[flow.Mask]*subtable)}
}

// InstallRule adds a policy rule. Unlike the cached dataplane there is
// nothing to flush: the matcher is recompiled incrementally.
func (s *Switch) InstallRule(r flowtable.Rule) *flowtable.Rule {
	stored := s.table.Insert(r)
	st := s.byMask[stored.Match.Mask]
	if st == nil {
		st = &subtable{mask: stored.Match.Mask, rules: make(map[flow.Key][]*flowtable.Rule)}
		s.byMask[stored.Match.Mask] = st
		s.subtables = append(s.subtables, st)
	}
	mk := stored.Match.Mask.Apply(stored.Match.Key)
	bucket := st.rules[mk]
	i := sort.Search(len(bucket), func(i int) bool {
		b := bucket[i]
		if b.Priority != stored.Priority {
			return b.Priority < stored.Priority
		}
		return b.Seq() > stored.Seq()
	})
	bucket = append(bucket, nil)
	copy(bucket[i+1:], bucket[i:])
	bucket[i] = stored
	st.rules[mk] = bucket
	st.nRules++
	if st.nRules == 1 || stored.Priority > st.maxPriority {
		st.maxPriority = stored.Priority
	}
	sort.SliceStable(s.subtables, func(i, j int) bool {
		return s.subtables[i].maxPriority > s.subtables[j].maxPriority
	})
	return stored
}

// RemoveRule removes a rule previously installed.
func (s *Switch) RemoveRule(r *flowtable.Rule) bool {
	if !s.table.Remove(r) {
		return false
	}
	st := s.byMask[r.Match.Mask]
	mk := r.Match.Mask.Apply(r.Match.Key)
	bucket := st.rules[mk]
	for i, have := range bucket {
		if have == r {
			bucket = append(bucket[:i], bucket[i+1:]...)
			break
		}
	}
	if len(bucket) == 0 {
		delete(st.rules, mk)
	} else {
		st.rules[mk] = bucket
	}
	st.nRules--
	if st.nRules == 0 {
		delete(s.byMask, st.mask)
		for i, have := range s.subtables {
			if have == st {
				s.subtables = append(s.subtables[:i], s.subtables[i+1:]...)
				break
			}
		}
	}
	return true
}

// NumSubtables returns the compiled mask count — fixed by the policy, not
// by traffic.
func (s *Switch) NumSubtables() int { return len(s.subtables) }

// ProcessKey classifies one packet. The now parameter is accepted for
// interface parity with the cached dataplane and ignored: there is no
// cache state to age.
func (s *Switch) ProcessKey(_ uint64, k flow.Key) dataplane.Decision {
	s.counters.Packets++
	var best *flowtable.Rule
	scanned := 0
	switch s.cfg.Mode {
	case Linear:
		best = s.table.Lookup(k)
		scanned = s.table.Len()
	default:
		for _, st := range s.subtables {
			if best != nil && best.Priority > st.maxPriority {
				break
			}
			scanned++
			bucket := st.rules[st.mask.Apply(k)]
			if len(bucket) == 0 {
				continue
			}
			r := bucket[0]
			if best == nil || r.Priority > best.Priority ||
				(r.Priority == best.Priority && r.Seq() < best.Seq()) {
				best = r
			}
		}
	}
	v := cache.Verdict{Verdict: flowtable.Deny}
	if best != nil {
		v = best.Action
	}
	if v.Verdict == flowtable.Allow {
		s.counters.Allowed++
	} else {
		s.counters.Denied++
	}
	return dataplane.Decision{Verdict: v, Path: dataplane.PathSlow, MasksScanned: scanned}
}

// ProcessFrames runs a burst of raw frames through extract + classify,
// writing one Decision per frame into out (grown if needed) and returning
// it — the same frame-first ingress contract as dataplane.Switch, so the
// simulator's measured cost includes the parse stage for the baseline
// too. Malformed frames are counted (ParseError) and denied without
// aborting the burst; read per-frame causes via fb.Err.
func (s *Switch) ProcessFrames(now uint64, fb *dataplane.FrameBatch, out []dataplane.Decision) []dataplane.Decision {
	out = dataplane.GrowDecisions(out, fb.Len())
	keys, errs, _ := fb.Extract()
	for i := range keys {
		if errs[i] != nil {
			s.counters.ParseError++
			s.counters.Packets++
			out[i] = dataplane.Decision{Verdict: cache.Verdict{Verdict: flowtable.Deny}}
			continue
		}
		out[i] = s.ProcessKey(now, keys[i])
	}
	return out
}

// Process parses and classifies one frame: the scalar shim over the
// frame-first entry point, as on dataplane.Switch.
func (s *Switch) Process(now uint64, inPort uint32, frame []byte) (dataplane.Decision, error) {
	fb := &s.oneFrame
	fb.Reset()
	fb.Append(frame, inPort)
	s.oneOut = s.ProcessFrames(now, fb, s.oneOut)
	return s.oneOut[0], fb.Err(0)
}

// Counters returns a snapshot of the counters.
func (s *Switch) Counters() dataplane.Counters { return s.counters }

// String summarises the matcher.
func (s *Switch) String() string {
	return fmt.Sprintf("baseline %q: %d rules in %d compiled masks (mode %d)",
		s.cfg.Name, s.table.Len(), len(s.subtables), s.cfg.Mode)
}
