package dataplane

import (
	"policyinject/internal/cache"
	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// keyBurst refills fb with keys as the wire sees them: each key's
// five-tuple rendered by pkt.BuildTuple (minimal length) on the key's
// in_port. Frames carry the builder's MACs and TCP flags, so the keys
// the switch classifies are the burst's extracted ones (FrameBatch.Key,
// below), which sequential references must use.
func keyBurst(fb *FrameBatch, keys []flow.Key) *FrameBatch {
	fb.Reset()
	for _, k := range keys {
		f, err := pkt.BuildTuple(k.Tuple(), 0)
		if err != nil {
			panic(err)
		}
		fb.Append(f, uint32(k.Get(flow.FieldInPort)))
	}
	return fb
}

// KeyBurst is keyBurst for the package's external tests.
var KeyBurst = keyBurst

// Key returns frame i's extracted key from the last burst. Only
// meaningful when Err(i) is nil.
func (fb *FrameBatch) Key(i int) flow.Key { return fb.keys[i] }

// WithoutRunCoalescing disables same-flow run coalescing in the burst
// walk: consecutive identical keys are then classified one by one. The
// batched tier walk itself stays on. It is the reference leg of
// TestRunCoalescingExactness and of the batch==sequential suite's
// smc-nocoalesce hierarchy.
func WithoutRunCoalescing() Option { return func(c *config) { c.noCoalesce = true } }

// EMC exposes the microflow cache for inspection and experiments, or nil
// when the hierarchy has no EMC tier.
func (s *Switch) EMC() *cache.EMC {
	for _, t := range s.tiers {
		if et, ok := t.(*EMCTier); ok {
			return et.emc
		}
	}
	return nil
}

// SMC exposes the signature-match cache, or nil when the hierarchy has no
// SMC tier.
func (s *Switch) SMC() *cache.SMC {
	for _, t := range s.tiers {
		if st, ok := t.(*SMCTier); ok {
			return st.smc
		}
	}
	return nil
}
