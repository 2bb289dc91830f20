package dataplane

import (
	"policyinject/internal/cache"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
	"policyinject/internal/telemetry"
)

// FrameBatch is the frame-first ingress unit: a burst of raw wire frames
// with their ingress ports, plus the reusable key/hash/error scratch the
// extract stage fills. It is the type a NIC rx queue (or a pcap replay, or
// a traffic generator's FrameSource) hands to ProcessFrames, and it is
// deliberately reusable — Reset and refill it every burst and the steady
// state allocates nothing.
//
// Frames and InPorts are plain fields so callers can fill them directly;
// the scratch below them is owned by the batch. The batch owns the burst's
// flow hashes too: when the hierarchy consumes them, the one
// pkt.ExtractHashBatch pass that fills keys fills hashes beside them.
type FrameBatch struct {
	Frames  [][]byte
	InPorts []uint32

	keys   []flow.Key
	errs   []error
	hashes []uint64

	// Compaction scratch for bursts carrying malformed frames: the valid
	// frames' keys and input indices, and the decisions of the compacted
	// sub-burst. Kept separate from keys so Key(i) stays frame-aligned;
	// the hashes, which no accessor reads by frame, compact in place.
	vkeys    []flow.Key
	validIdx []int
	vout     []Decision
}

// Reset empties the batch for refilling, keeping all capacity.
func (fb *FrameBatch) Reset() {
	fb.Frames = fb.Frames[:0]
	fb.InPorts = fb.InPorts[:0]
}

// Append adds one frame received on inPort to the batch.
func (fb *FrameBatch) Append(frame []byte, inPort uint32) {
	fb.Frames = append(fb.Frames, frame)
	fb.InPorts = append(fb.InPorts, inPort)
}

// Len returns the number of frames in the batch.
func (fb *FrameBatch) Len() int { return len(fb.Frames) }

// extract parses every frame into the batch's key scratch (one
// pkt.ExtractHashBatch pass) and returns the keys, the per-frame error
// slots and the number of malformed frames; with hash set, also each
// frame's flow hash, computed in the same pass (nil without hash). The
// returned slices are the batch's scratch: valid until the next extract.
func (fb *FrameBatch) extract(hash bool) (keys []flow.Key, hashes []uint64, errs []error, bad int) {
	n := fb.Len()
	if cap(fb.keys) < n {
		fb.keys, fb.errs = make([]flow.Key, n), make([]error, n)
	}
	fb.keys, fb.errs = fb.keys[:n], fb.errs[:n]
	if hash {
		if cap(fb.hashes) < n {
			fb.hashes = make([]uint64, n)
		}
		hashes = fb.hashes[:n]
	}
	bad = pkt.ExtractHashBatch(fb.Frames, fb.InPorts, fb.keys, hashes, fb.errs)
	return fb.keys, hashes, fb.errs, bad
}

// compactValid gathers the keys of cleanly parsed frames into the batch's
// compaction scratch, recording each one's input index in validIdx, and
// moves each one's hash (when hashes is non-nil) beside it.
func (fb *FrameBatch) compactValid(keys []flow.Key, hashes []uint64, errs []error) ([]flow.Key, []uint64) {
	fb.vkeys = fb.vkeys[:0]
	fb.validIdx = fb.validIdx[:0]
	for i := range keys {
		if errs[i] == nil {
			if hashes != nil {
				hashes[len(fb.vkeys)] = hashes[i]
			}
			fb.vkeys = append(fb.vkeys, keys[i])
			fb.validIdx = append(fb.validIdx, i)
		}
	}
	if hashes != nil {
		hashes = hashes[:len(fb.vkeys)]
	}
	return fb.vkeys, hashes
}

// Err returns frame i's parse outcome from the last burst (nil for a
// clean decode).
func (fb *FrameBatch) Err(i int) error { return fb.errs[i] }

// denyDecision is the decision a malformed frame receives: dropped without
// entering the classifier, as a real datapath discards what it cannot
// parse.
func denyDecision() Decision {
	return Decision{Verdict: cache.Verdict{Verdict: flowtable.Deny}}
}

// ProcessFrames runs a burst of raw frames through the whole pipeline —
// extract and hash in one pass, batched tier walk — writing one Decision
// per frame into out (grown if needed) and returning it. This is the
// ingress of the switch: the wire burst, not the packet and not the
// pre-parsed key, is the unit of work, so the measured per-packet cost
// includes the parse stage a pre-extracted key hides.
//
// Malformed frames do not abort the burst: each gets a Deny decision, a
// switch-level ParseError and per-port RxErrors/RxDropped accounting (read
// the per-frame cause via fb.Err), and the remaining frames classify as
// one compacted sub-burst. On well-formed traffic the decisions and
// counters are exactly those of a Process loop (bursts of one), under the
// burst's visibility rule: within a burst, one packet's cache promotions
// become visible to later *tier passes* of the same walk and to later
// packets of its own same-flow run — not to other packets already swept
// past that tier. A flow repeated in two non-consecutive runs of one burst
// is probed once per run in the same sweep, so the second run does not see
// the first's promotions and may answer from a lower tier than a Process
// loop would (the verdict is identical either way). This is the visibility
// rule of OVS's dp_packet_batch processing. By the same rule a promotion
// that displaces another flow of the burst from a shared cache slot (an
// SMC fingerprint, an EMC way) takes effect in walk order, not packet
// order. Exact batch==sequential equivalence holds for bursts whose
// duplicate flows are consecutive and whose flows share no cache slot.
//
//lint:hotpath
func (s *Switch) ProcessFrames(now uint64, fb *FrameBatch, out []Decision) []Decision {
	tel := s.tel
	if tel == nil {
		return s.processFrames(now, fb, out)
	}
	// Instrumented leg: stamp the burst's wall latency and settle the
	// counter deltas it accrued. Everything here is plain arithmetic
	// plus atomic adds on handles resolved at registration — the
	// zero-alloc contract of this root holds with telemetry on.
	t0 := telemetry.Clock()
	prev := s.counters
	var scan0, visits0 uint64
	if tel.mf != nil {
		scan0, visits0 = tel.mf.MasksScanned, tel.mf.SubtableVisits
	}
	copy(tel.prevTierHits, s.tierHits)
	out = s.processFrames(now, fb, out)
	tel.record(&s.counters, &prev, s.tierHits, scan0, visits0, uint64(fb.Len()), telemetry.Clock()-t0)
	return out
}

// processFrames is the uninstrumented frame pipeline ProcessFrames
// wraps.
func (s *Switch) processFrames(now uint64, fb *FrameBatch, out []Decision) []Decision {
	n := fb.Len()
	out = GrowDecisions(out, n)
	if n == 0 {
		return out
	}
	// One pass extracts the burst and, if a tier consumes hashes, hashes it.
	keys, hashes, errs, bad := fb.extract(s.needHashes)
	s.counters.Packets += uint64(n)
	if bad == 0 {
		s.processBatch(now, keys, hashes, out)
	} else {
		// Compact the parseable frames into one contiguous sub-burst (into
		// the batch's separate compaction scratch, so Key(i) stays
		// frame-aligned), classify it, and scatter the decisions back to
		// input order.
		s.counters.ParseError += uint64(bad)
		vkeys, vhashes := fb.compactValid(keys, hashes, errs)
		fb.vout = GrowDecisions(fb.vout, len(vkeys))
		s.processBatch(now, vkeys, vhashes, fb.vout)
		for i := range out {
			out[i] = denyDecision()
		}
		for j, i := range fb.validIdx {
			out[i] = fb.vout[j]
		}
	}

	// Port counters, one pass: each stretch of frames from one in-port is
	// tallied in registers and settled into its port once, where the
	// in-port changes and at the end — a burst comes off one rx queue.
	id, from := fb.InPorts[0], 0
	var t portTally
	for i, frame := range fb.Frames {
		if fb.InPorts[i] != id {
			t.settle(s.ports[id], i-from)
			id, from, t = fb.InPorts[i], i, portTally{}
		}
		t = t.add(len(frame), errs[i] != nil, out[i].Verdict.Verdict == flowtable.Allow)
	}
	t.settle(s.ports[id], n-from)
	return out
}

// portTally is one in-port's stretch of a burst in the port counters'
// terms. Its frame count is the stretch's length and every frame it did
// not transmit it dropped, so four fields carry the six counters.
type portTally struct{ rxBytes, rxErrors, txPackets, txBytes uint64 }

// add counts one frame of size bytes: malformed, or else allowed out.
func (t portTally) add(size int, malformed, allowed bool) portTally {
	t.rxBytes += uint64(size)
	switch {
	case malformed:
		t.rxErrors++
	case allowed:
		t.txPackets++
		t.txBytes += uint64(size)
	}
	return t
}

// settle adds the tally of a stretch of n frames to port p; an unknown
// in-port (nil) counts nothing.
func (t portTally) settle(p *Port, n int) {
	if p == nil {
		return
	}
	p.RxPackets += uint64(n)
	p.RxBytes += t.rxBytes
	p.RxErrors += t.rxErrors
	p.RxDropped += uint64(n) - t.txPackets
	p.TxPackets += t.txPackets
	p.TxBytes += t.txBytes
}
