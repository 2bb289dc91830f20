package dataplane_test

import (
	"reflect"
	"testing"

	"policyinject/internal/attack"
	"policyinject/internal/cache"
	"policyinject/internal/chaos"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
)

// megaflowTier is everything the switch discovers of the authoritative tier,
// so a wrapper embedding it hides nothing.
type megaflowTier interface {
	dataplane.BatchTier
	dataplane.RunCoalescer
	dataplane.LimitedTier
	dataplane.RevalidatableTier
	dataplane.MegaflowInstaller
	Megaflow() *cache.Megaflow
}

// sweepingReprobe is the reference of the re-probe differential: the wrapped
// tier with the re-probe the walk made before a tier had one of its own, the
// full Lookup.
type sweepingReprobe struct{ megaflowTier }

func (t sweepingReprobe) Reprobe(k flow.Key, now uint64) (*cache.Entry, int, bool) {
	return t.Lookup(k, now)
}

// twoRuns repeats every key eight places on: in bursts of 32, two runs of it
// in one burst, the second a re-probe hit on what the first installed.
func twoRuns(keys []flow.Key) []flow.Key {
	out := make([]flow.Key, 0, 2*len(keys))
	for start := 0; start < len(keys); start += 8 {
		chunk := keys[start:min(start+8, len(keys))]
		out = append(append(out, chunk...), chunk...)
	}
	return out
}

// byPort reorders the two-field covert stream (32 source depths for each of 16
// port depths) port depth fastest. As generated, a burst of 32 holds one port
// depth whole, and the one install of it that merges into another's mask finds
// that subtable minted by its own burst; reordered, the subtable is older than
// the burst — the install a "rows minted since the sweep" watermark would miss.
func byPort(keys []flow.Key) []flow.Key {
	out := make([]flow.Key, 0, len(keys))
	for src := range 32 {
		for port := range len(keys) / 32 {
			out = append(out, keys[32*port+src])
		}
	}
	return out
}

// TestReprobeEqualsLookup feeds two switches the same bursts, one re-probing
// through its tier's Reprobe and one through the tier's Lookup, and demands
// the same decisions, switch counters, cache counters and per-entry credits:
// where the put log answers, where it overflows mid-burst, where an install
// lands in a subtable older than the burst, and where eviction, a flow limit
// or a fault changes the table between the sweep and the re-probe. Only the
// physical probe count may differ, and only downwards.
func TestReprobeEqualsLookup(t *testing.T) {
	three, two := attack.ThreeField(), attack.TwoField()
	cases := []struct {
		name    string
		atk     *attack.Attack
		reorder func([]flow.Key) []flow.Key // nil: the covert stream as generated
		burst   int
		emc     bool
		mf      cache.MegaflowConfig
		faults  []chaos.Fault
		errors  bool // some installs must fail
		// What replaying the stream cold must leave in the cache's counters
		// (zero: not pinned).
		lookups, scanned uint64
	}{
		// The harness's set-up of attack8192_flat, and what it billed when the
		// re-probe still swept: 8 192 burst lookups and 7 936 re-probes.
		{name: "three-field in 32s", atk: three, burst: 32, lookups: 16128, scanned: 63868544},
		{name: "three-field in 256s: the log overflows mid-burst", atk: three, burst: 256,
			reorder: func(keys []flow.Key) []flow.Key { return keys[:2048] }}, // a quarter: the reference sweeps twice per upcall
		{name: "two-field: 16 installs into subtables their own burst minted", atk: two, burst: 32},
		{name: "two-field: installs into older subtables, re-probed by a second run", atk: two, burst: 32,
			reorder: func(keys []flow.Key) []flow.Key { return twoRuns(byPort(keys)) }},
		{name: "a key in two runs of one burst", atk: two, reorder: twoRuns, burst: 32},
		{name: "a key in two runs of one burst, under an EMC", atk: two, reorder: twoRuns, burst: 32, emc: true},
		{name: "mask cap evicting LRU between sweep and re-probe", atk: two, burst: 32,
			mf: cache.MegaflowConfig{MaxMasks: 100, MaskEvictLRU: true}},
		{name: "flow limit refusing installs mid-burst", atk: two, burst: 32,
			mf: cache.MegaflowConfig{FlowLimit: 100}, errors: true},
		{name: "delayed installs landing in later bursts", atk: two, burst: 32,
			faults: []chaos.Fault{{Kind: chaos.KindDelayUpcalls, Start: 3, Stop: 9, Delay: 2}, {Kind: chaos.KindSlowScan, Start: 5, Stop: 12}}, errors: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			build := func(reference bool) *dataplane.Switch {
				wrap := func(t dataplane.Tier) dataplane.Tier { return t }
				if tc.faults != nil {
					inj, err := chaos.New(chaos.Config{Seed: 1, Faults: tc.faults})
					if err != nil {
						t.Fatal(err)
					}
					wrap = inj.WrapTier
				}
				if inner := wrap; reference {
					// Outermost, so the reference re-probes with the fault wrapper's Lookup.
					wrap = func(t dataplane.Tier) dataplane.Tier {
						if mt, ok := inner(t).(megaflowTier); ok {
							return sweepingReprobe{mt}
						}
						return t
					}
				}
				opts := []dataplane.Option{dataplane.WithMegaflow(tc.mf), dataplane.WithTierWrapper(wrap)}
				if !tc.emc {
					opts = append(opts, dataplane.WithoutEMC())
				}
				return attackSwitchFor(t, tc.atk, opts...)
			}
			plain, ref := build(false), build(true)
			if _, ok := ref.Tiers()[len(ref.Tiers())-1].(sweepingReprobe); !ok {
				t.Fatal("test fixture broken: the reference's megaflow tier is not wrapped")
			}
			physical := func(sw *dataplane.Switch) uint64 {
				return sw.Megaflow().MasksScanned - sw.Megaflow().RunBilledScans
			}
			installed := func() uint64 { return plain.Counters().Upcalls - plain.Counters().InstallErr }

			covert := covertKeysFor(t, tc.atk)
			if tc.reorder != nil {
				covert = tc.reorder(covert)
			}
			// Cold, then the victim, then the stream again on what is resident.
			stream := append(append(append([]flow.Key(nil), covert...), victimKeys(64)...), covert...)
			var got, want []dataplane.Decision
			now, reprobed := uint64(0), false
			for start := 0; start < len(stream); start += tc.burst {
				now++
				keys := stream[start:min(start+tc.burst, len(stream))]
				installs, before := installed(), [2]uint64{physical(plain), physical(ref)}
				got = plain.ProcessBatch(now, keys, got)
				want = ref.ProcessBatch(now, keys, want)
				for i := range keys {
					if got[i] != want[i] {
						t.Fatalf("tick %d, key %d: %+v, the reference decides %+v", now, i, got[i], want[i])
					}
				}
				if a, b := plain.Counters(), ref.Counters(); !reflect.DeepEqual(a, b) {
					t.Fatalf("tick %d: switch counters %+v, the reference's %+v", now, a, b)
				}
				a, b := plain.Megaflow(), ref.Megaflow()
				if a.Lookups != b.Lookups || a.Hits != b.Hits || a.Misses != b.Misses || a.MasksScanned != b.MasksScanned ||
					a.Len() != b.Len() || a.NumMasks() != b.NumMasks() {
					t.Fatalf("tick %d: cache\n%v, the reference's\n%v", now, a, b)
				}
				if b.RunBilledScans != 0 {
					t.Fatalf("tick %d: the reference booked %d scans without a probe", now, b.RunBilledScans)
				}
				spent, refSpent := physical(plain)-before[0], physical(ref)-before[1]
				if spent > refSpent {
					t.Fatalf("tick %d: %d probes, the reference made %d", now, spent, refSpent)
				}
				// A burst's second install followed a re-probe; with more masks
				// resident than the burst can log it cost less than a sweep.
				if installs = installed() - installs; installs >= 2 && a.NumMasks() > 2*tc.burst && tc.burst < 64 {
					reprobed = true
					if spent >= refSpent {
						t.Fatalf("tick %d: %d probes for a burst that installed %d times over %d masks, the reference made %d",
							now, spent, installs, a.NumMasks(), refSpent)
					}
				}
				if start+tc.burst >= len(covert) && start < len(covert) && tc.lookups != 0 {
					if a.Lookups != tc.lookups || a.MasksScanned != tc.scanned {
						t.Errorf("cold stream: %d lookups scanned %d masks, want %d and %d", a.Lookups, a.MasksScanned, tc.lookups, tc.scanned)
					}
				}
			}
			if tc.burst < 64 && !reprobed {
				t.Error("no burst installed twice over a table larger than the put log: the case re-probes nothing")
			}
			if a, b := physical(plain), physical(ref); a >= b {
				t.Errorf("%d probes in all, the reference made %d", a, b)
			}
			if errs := plain.Counters().InstallErr; (errs > 0) != tc.errors {
				t.Errorf("%d install errors, want some: %v", errs, tc.errors)
			}

			credits := func(sw *dataplane.Switch) map[flow.Match][3]uint64 {
				out := make(map[flow.Match][3]uint64)
				for _, ent := range sw.Megaflow().Entries() {
					out[ent.Match()] = [3]uint64{ent.Hits, ent.LastHit, ent.Added}
				}
				return out
			}
			if a, b := credits(plain), credits(ref); !reflect.DeepEqual(a, b) {
				t.Fatalf("per-entry hits, last hit and age differ between %d entries and the reference's %d", len(a), len(b))
			}
		})
	}
}
