package cache

import (
	"testing"

	"policyinject/internal/flow"
)

// TestSMCInsertHashedEqualsInsert pins the hashed-install contract: given
// h == k.Hash(), InsertHashed must leave the cache and its counters in
// exactly the state Insert would — including the overwrite-on-collision
// eviction accounting — so the batch walk's cached-hash installs are
// observationally identical to scalar re-hash installs.
func TestSMCInsertHashedEqualsInsert(t *testing.T) {
	keyN := func(i int) flow.Key {
		var k flow.Key
		k.Set(flow.FieldIPSrc, uint64(0x0a000000+i))
		k.Set(flow.FieldTPDst, uint64(80+i%3))
		return k
	}
	mfc := NewMegaflow(MegaflowConfig{})
	entry := func(k flow.Key) *Entry { return smcEntry(t, mfc, k) }

	plain := NewSMC(SMCConfig{Entries: 1 << 6}) // tiny: forces collisions
	hashed := NewSMC(SMCConfig{Entries: 1 << 6})
	for i := 0; i < 512; i++ {
		k := keyN(i)
		e := entry(k)
		plain.Insert(k, e)
		hashed.InsertHashed(k, k.Hash(), e)
	}
	if plain.Len() != hashed.Len() {
		t.Fatalf("Len: plain %d, hashed %d", plain.Len(), hashed.Len())
	}
	if plain.Inserts != hashed.Inserts || plain.Evictions != hashed.Evictions {
		t.Fatalf("counters: plain inserts=%d evict=%d, hashed inserts=%d evict=%d",
			plain.Inserts, plain.Evictions, hashed.Inserts, hashed.Evictions)
	}
	for i := 0; i < 512; i++ {
		k := keyN(i)
		a, aok := plain.Lookup(k, 1)
		b, bok := hashed.Lookup(k, 1)
		if aok != bok || (aok && a.Match() != b.Match()) {
			t.Fatalf("key %d: plain (%v,%v) != hashed (%v,%v)", i, a, aok, b, bok)
		}
	}

	// Disabled cache: both paths are no-ops.
	off := NewSMC(SMCConfig{Entries: -1})
	k := keyN(1)
	off.InsertHashed(k, k.Hash(), entry(k))
	if off.Len() != 0 || off.Inserts != 0 {
		t.Fatal("disabled SMC accepted a hashed insert")
	}
}
