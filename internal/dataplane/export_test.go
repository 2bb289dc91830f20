package dataplane

import (
	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// keyBurst refills fb with keys as the wire sees them: each key's
// five-tuple rendered by pkt.BuildTuple (minimal length) on the key's
// in_port. Frames carry the builder's MACs and TCP flags, so the keys
// the switch classifies are the burst's extracted ones (fb.Key), which
// sequential references must use.
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
