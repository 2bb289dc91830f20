package cache

import "policyinject/internal/flow"

// The removals and shard views below have no datapath caller: entries
// leave the caches by eviction, idle sweeps, trims and flushes. The
// differential and property tests remove single entries to drive the
// caches' structure through every shape.

// Remove drops the entry for k if present.
func (e *EMC) Remove(k flow.Key) bool {
	if e.max == 0 {
		return false
	}
	pos, n := e.find(k.Hash())
	if n < 0 || e.slots[n].key != k {
		return false
	}
	e.removeAt(pos, n)
	return true
}

// Remove deletes the entry with exactly the given match.
func (m *Megaflow) Remove(match flow.Match) bool {
	match.Normalize()
	st, _ := m.subtableOf(&match.Mask)
	if st == nil {
		return false
	}
	ent := st.probe(&match.Key, m.seed)
	if ent == nil {
		return false
	}
	m.removeEntry(ent)
	if st.n == 0 {
		m.dropSubtable(st)
	}
	return true
}

// ShardIndex returns the shard a flow hash selects.
func (s *shards[C]) ShardIndex(h uint64) int { return int((h >> shardShift) & s.smask) }

// Len returns the total cached references.
func (r *ShardedRef) Len() int { return r.Snapshot().Entries }

// Cap returns the total configured capacity.
func (r *ShardedRef) Cap() int { return r.Snapshot().Capacity }
