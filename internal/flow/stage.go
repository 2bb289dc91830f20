package flow

// Stage identifies one segment of the staged subtable lookup, mirroring
// the metadata -> L2 -> L3 -> L4 staging of Open vSwitch's classifier
// (lib/classifier's subtable indices). A subtable's mask is split along
// stage boundaries and the flow hash is computed incrementally stage by
// stage, so a lookup can reject a subtable at the first stage whose
// partial hash matches no resident entry — without ever masking or
// hashing the rest of the key.
//
// Stages are defined over the Key word layout, not individual fields:
//
//	StageMeta: word 0          (in_port, eth_type, vlan_tci)
//	StageL2:   words 1-2       (eth_src/dst, ip_proto, ip_tos, tcp_flags, ip_frag)
//	StageL3:   words 3, 5-8    (IPv4 and IPv6 addresses)
//	StageL4:   words 4, 9      (L4 ports, ICMP, ARP, ct_state)
//
// Every Key word belongs to exactly one stage, so the chain of all four
// stage hashes covers the whole key.
type Stage uint8

const (
	StageMeta Stage = iota
	StageL2
	StageL3
	StageL4

	// NumStages is the number of lookup stages.
	NumStages
)

func (s Stage) String() string {
	switch s {
	case StageMeta:
		return "meta"
	case StageL2:
		return "l2"
	case StageL3:
		return "l3"
	case StageL4:
		return "l4"
	default:
		return "invalid"
	}
}

// stageWords maps each stage to the Key/Mask words it covers. The word
// sets partition [0, Words).
var stageWords = [NumStages][]int{
	StageMeta: {0},
	StageL2:   {1, 2},
	StageL3:   {3, 5, 6, 7, 8},
	StageL4:   {4, 9},
}

// StageUsed reports whether the mask selects any bit in stage s.
func (m *Mask) StageUsed(s Stage) bool {
	for _, w := range stageWords[s] {
		if m[w] != 0 {
			return true
		}
	}
	return false
}

// LastStage returns the highest stage with any selected bit, and false
// when the mask selects nothing at all (the catch-all subtable).
func (m *Mask) LastStage() (Stage, bool) {
	for s := NumStages; s > 0; s-- {
		if m.StageUsed(s - 1) {
			return s - 1, true
		}
	}
	return StageMeta, false
}

// StageHashSeed is the initial accumulator of the incremental stage hash
// chain, and of Key.Hash.
const StageHashSeed uint64 = 14695981039346656037

// HashStage folds stage s of k, masked by m, into the running hash h and
// returns the new accumulator, a word at a time through the mixer Key.Hash
// uses. Chaining HashStage over a subtable's used stages in ascending
// order yields the incremental per-stage hashes of the staged lookup: the
// hash after stage s depends only on the masked key bits of stages <= s,
// so two keys agreeing on those bits share every prefix of the chain. No
// finaliser is applied — the per-stage hashes index Go maps, which re-hash
// the uint64 themselves.
func (k *Key) HashStage(h uint64, m *Mask, s Stage) uint64 {
	for _, w := range stageWords[s] {
		h = MixWord(h, k[w]&m[w])
	}
	return h
}
