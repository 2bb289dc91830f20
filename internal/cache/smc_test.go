package cache

import (
	"testing"

	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

func smcKey(src uint64) flow.Key {
	var k flow.Key
	k.Set(flow.FieldEthType, flow.EthTypeIPv4)
	k.Set(flow.FieldIPProto, flow.ProtoTCP)
	k.Set(flow.FieldIPSrc, src)
	k.Set(flow.FieldTPDst, 443)
	return k
}

// smcEntry mints a live megaflow entry matching k exactly.
func smcEntry(t *testing.T, mfc *Megaflow, k flow.Key) *Entry {
	t.Helper()
	ent, err := mfc.Insert(flow.Match{Key: k, Mask: flow.ExactMask}, Verdict{Verdict: flowtable.Allow}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return ent
}

func TestSMCHitVerifiesMask(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{})
	smc := NewSMC(SMCConfig{Entries: 1 << 10})

	// A wildcard megaflow: only ip_src significant.
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000001)
	m.Mask.SetExact(flow.FieldIPSrc)
	ent, err := mfc.Insert(m, Verdict{Verdict: flowtable.Allow}, 1)
	if err != nil {
		t.Fatal(err)
	}

	k := smcKey(0x0a000001)
	smc.Insert(k, ent)
	got, ok := smc.Lookup(k, 2)
	if !ok || got != ent {
		t.Fatal("exact key missed")
	}
	// A key with the same fingerprint slot is astronomically unlikely to
	// also carry a matching signature; but even a same-slot insert must
	// never serve a key the megaflow's mask rejects.
	other := smcKey(0x0b000009)
	smc.Insert(other, ent) // entry's mask does NOT cover other
	if _, ok := smc.Lookup(other, 3); ok {
		t.Fatal("SMC served a key its megaflow mask rejects")
	}
}

func TestSMCBoundedByCapacity(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	smc := NewSMC(SMCConfig{Entries: 64})
	if smc.Cap() != 64 {
		t.Fatalf("cap = %d", smc.Cap())
	}
	for i := 0; i < 4096; i++ {
		k := smcKey(uint64(0x0a000000 + i))
		smc.Insert(k, smcEntry(t, mfc, k))
	}
	if smc.Len() > 64 {
		t.Fatalf("len = %d exceeds capacity 64", smc.Len())
	}
	if smc.Evictions == 0 {
		t.Error("collision overwrites not counted as evictions")
	}
}

func TestSMCCapacityRoundsUpToPowerOfTwo(t *testing.T) {
	smc := NewSMC(SMCConfig{Entries: 1000})
	if smc.Cap() != 1024 {
		t.Fatalf("cap = %d, want 1024", smc.Cap())
	}
	if NewSMC(SMCConfig{}).Cap() != DefaultSMCEntries {
		t.Fatal("default capacity wrong")
	}
}

func TestSMCDisabled(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{})
	smc := NewSMC(SMCConfig{Entries: -1})
	k := smcKey(0x0a000001)
	smc.Insert(k, smcEntry(t, mfc, k))
	if smc.Len() != 0 {
		t.Fatal("disabled SMC stored an entry")
	}
	if _, ok := smc.Lookup(k, 1); ok {
		t.Fatal("disabled SMC hit")
	}
	smc.Flush() // must not panic
}

// TestSMCSurvivesEMCScaleThrash is the attack-economics property the SMC
// tier exists for: a covert flood of distinct keys large enough to thrash
// the 8192-entry EMC leaves a same-sized SMC with every flow still
// resident.
func TestSMCSurvivesEMCScaleThrash(t *testing.T) {
	mfc := NewMegaflow(MegaflowConfig{FlowLimit: -1})
	emc := NewEMC(EMCConfig{}) // 8192
	smc := NewSMC(SMCConfig{}) // ~1M

	victim := smcKey(0x0a0a0005)
	vent := smcEntry(t, mfc, victim)
	emc.Insert(victim, vent)
	smc.Insert(victim, vent)

	// 64k distinct covert flows: 8x the EMC, 1/16th of the SMC.
	for i := 0; i < 1<<16; i++ {
		k := smcKey(uint64(0x30000000 + i))
		ent := smcEntry(t, mfc, k)
		emc.Insert(k, ent)
		smc.Insert(k, ent)
	}

	if _, ok := emc.Lookup(victim, 2); ok {
		t.Skip("EMC random replacement spared the victim this time; the property is statistical")
	}
	if _, ok := smc.Lookup(victim, 2); !ok {
		t.Fatal("SMC lost the victim flow under a flood the table dwarfs")
	}
}
