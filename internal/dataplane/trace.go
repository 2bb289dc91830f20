package dataplane

import (
	"fmt"
	"strings"

	"policyinject/internal/cache"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// TraceStep is one tier's decision in a frame trace.
type TraceStep struct {
	Index int    // tier position in walk order
	Tier  string // tier name ("emc", "smc", "megaflow", ...)
	Hit   bool
	Cost  int           // scan cost this tier billed (Decision.MasksScanned share)
	Match string        // matched cache entry's megaflow match (hit only)
	Vd    cache.Verdict // matched entry's verdict (hit only)

	// Megaflow sweep detail, deltas of the cache's real pruning
	// counters around this very lookup — not a re-simulation. Sweep is
	// true for megaflow-backed tiers.
	Sweep    bool
	Resident int    // subtables resident at lookup time
	Scanned  uint64 // MasksScanned delta (billed scan positions)
	Visits   uint64 // SubtableVisits delta (physical stage/full probes)
	Prunes   uint64 // SubtablePrunes delta (prefilter rejections)
	Bails    uint64 // StageBails delta (stage-hash misses before full probe)
}

// TraceUpcall is the slow-path tail of a trace that missed every tier.
type TraceUpcall struct {
	Refused    bool   // dropped by the upcall admission guard
	RuleFound  bool   // a policy rule matched
	Rule       string // winning rule rendering (priority, match, actions)
	Comment    string // rule provenance comment, if any
	Megaflow   string // synthesised megaflow match
	Installed  bool   // megaflow installed into the authoritative tier
	InstallErr string // install failure, if any
}

// TraceResult explains how one frame would fare through the pipeline —
// the ofproto/trace analog. It is produced by walking the frame
// through the *live* tiers (real Lookup calls, real promotions, real
// counter updates), so the explanation is the code path itself, not a
// model of it.
type TraceResult struct {
	Now      uint64
	InPort   uint32
	FrameLen int
	ParseErr error
	Key      flow.Key
	Steps    []TraceStep
	Upcall   *TraceUpcall // nil when a tier answered
	Verdict  cache.Verdict
	Path     Path
	Scanned  int // total masks scanned (Decision.MasksScanned)
}

// TraceFrame runs one frame through extract and the real tier walk at
// logical time now, recording every tier decision, the megaflow
// sweep's staged-pruning counter deltas, the upcall admission verdict
// and the slow-path outcome. State changes exactly as a Process call
// would change it (hits promote, upcalls install, counters move):
// tracing is processing with the explanation kept.
//
// Packets whose verdict recirculates through conntrack are reported
// with the first-pass verdict ("ct(recirc)"); the trace does not
// follow the second pass.
func (s *Switch) TraceFrame(now uint64, frame []byte, inPort uint32) *TraceResult {
	res := &TraceResult{Now: now, InPort: inPort, FrameLen: len(frame)}
	s.counters.Packets++
	k, err := pkt.Extract(frame, inPort)
	if err != nil {
		s.counters.ParseError++
		res.ParseErr = err
		res.Verdict = cache.Verdict{Verdict: flowtable.Deny}
		res.Path = PathSlow
		return res
	}
	res.Key = k
	// The frame is a burst of one: the annotated loop below promotes and
	// upcalls through the walk's own promote and upcall, with the hash pass
	// they rely on.
	keys := [1]flow.Key{k}
	hashes := flow.HashKeys(keys[:], nil)

	scanned := 0
	for i, t := range s.tiers {
		step := TraceStep{Index: i, Tier: t.Name()}
		var mf *cache.Megaflow
		if mt, ok := t.(megaflowBacked); ok {
			mf = mt.Megaflow()
		}
		var scan0, v0, p0, b0 uint64
		if mf != nil {
			step.Sweep = true
			step.Resident = mf.NumMasks()
			scan0, v0, p0, b0 = mf.MasksScanned, mf.SubtableVisits, mf.SubtablePrunes, mf.StageBails
		}
		ent, cost, ok := t.Lookup(k, now)
		scanned += cost
		step.Cost = cost
		if mf != nil {
			step.Scanned = mf.MasksScanned - scan0
			step.Visits = mf.SubtableVisits - v0
			step.Prunes = mf.SubtablePrunes - p0
			step.Bails = mf.StageBails - b0
		}
		if ok {
			step.Hit = true
			step.Match = ent.Match().String()
			step.Vd = ent.Verdict
			res.Steps = append(res.Steps, step)
			s.tierHits[i]++
			s.promote(keys[:], hashes, 0, ent, i)
			res.Verdict = ent.Verdict
			res.Path = t.Path()
			res.Scanned = scanned
			s.account(res.Verdict)
			return res
		}
		res.Steps = append(res.Steps, step)
	}

	d, sp := s.upcall(now, keys[:], hashes, 0, scanned)
	up := &TraceUpcall{Refused: sp.refused, Installed: sp.installed}
	res.Upcall = up
	res.Verdict, res.Path, res.Scanned = d.Verdict, d.Path, d.MasksScanned
	if !sp.refused {
		if r := sp.res.Rule; r != nil {
			up.RuleFound = true
			up.Rule = r.String()
			up.Comment = r.Comment
		}
		up.Megaflow = sp.res.Megaflow.String()
		if sp.err != nil {
			up.InstallErr = sp.err.Error()
		}
	}
	s.account(d.Verdict)
	return res
}

// String renders the trace as the dpctl-facing explanation. The text
// is deterministic for a deterministic switch state and is pinned by
// golden tests — change it deliberately.
func (r *TraceResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace: %d-byte frame on port %d at t=%d\n", r.FrameLen, r.InPort, r.Now)
	if r.ParseErr != nil {
		fmt.Fprintf(&b, "  extract: error: %v\n", r.ParseErr)
		fmt.Fprintf(&b, "verdict: deny (malformed frame dropped before classification)\n")
		return b.String()
	}
	fmt.Fprintf(&b, "  flow: %s\n", r.Key)
	for _, st := range r.Steps {
		outcome := "MISS"
		if st.Hit {
			outcome = "HIT"
		}
		fmt.Fprintf(&b, "  tier %d %s: %s (cost %d)\n", st.Index, st.Tier, outcome, st.Cost)
		if st.Sweep {
			fmt.Fprintf(&b, "    subtables: %d resident, %d scanned, %d probed, %d pruned, %d stage-hash bails\n",
				st.Resident, st.Scanned, st.Visits, st.Prunes, st.Bails)
		}
		if st.Hit {
			fmt.Fprintf(&b, "    matched %s -> %s\n", st.Match, st.Vd)
		}
	}
	if up := r.Upcall; up != nil {
		if up.Refused {
			fmt.Fprintf(&b, "  upcall: REFUSED by admission guard — dropped at the datapath, no classification\n")
		} else {
			fmt.Fprintf(&b, "  upcall: admitted to slow path\n")
			if up.RuleFound {
				fmt.Fprintf(&b, "    rule: %s", up.Rule)
				if up.Comment != "" {
					fmt.Fprintf(&b, "  # %s", up.Comment)
				}
				b.WriteByte('\n')
			} else {
				fmt.Fprintf(&b, "    rule: none matched -> default deny\n")
			}
			fmt.Fprintf(&b, "    megaflow: %s\n", up.Megaflow)
			switch {
			case up.Installed:
				fmt.Fprintf(&b, "    install: ok (promoted to upper tiers)\n")
			case up.InstallErr != "":
				fmt.Fprintf(&b, "    install: FAILED: %s\n", up.InstallErr)
			}
		}
	}
	fmt.Fprintf(&b, "verdict: %s via %s, masks scanned %d\n", r.Verdict, r.Path, r.Scanned)
	return b.String()
}
