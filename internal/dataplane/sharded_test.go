package dataplane

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"policyinject/internal/cache"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// admitAllGuard is a trivial UpcallGuard for option-validation tests.
type admitAllGuard struct{}

func (admitAllGuard) AdmitUpcall(uint64, uint32) bool { return true }

// TestShardedMatchesUnshardedDifferential drives the identical frame
// corpus through an unsharded switch and a WithShards(4) switch carrying
// the same rules, across the EMC/SMC/staged hierarchies, and demands the
// same per-frame verdicts and the same headline counters. Paths and mask
// scans are outside the contract: sharded EMC children seed their PRNGs
// per shard, and a wildcard megaflow is duplicated into every shard its
// traffic touches, so only "same decisions, same Packets/Allowed/Denied"
// is equivalence — counters modulo shard attribution.
func TestShardedMatchesUnshardedDifferential(t *testing.T) {
	hierarchies := []struct {
		name string
		opts []Option
	}{
		{"emc+tss", nil},
		{"tss-only", []Option{WithoutEMC()}},
		// InsertProb 1 keeps EMC insertion deterministic across the two
		// switches (the default 1/100 policy draws in a different order
		// per hierarchy shape, which is outside the contract).
		{"emc+smc+tss", []Option{
			WithEMC(cache.EMCConfig{InsertProb: 1}),
			WithSMC(cache.SMCConfig{Entries: 1 << 12}),
		}},
		{"staged", []Option{WithStagedPruning()}},
	}
	frames := frameCorpus()
	for _, h := range hierarchies {
		t.Run(h.name, func(t *testing.T) {
			ref := aclSwitch(h.opts...)
			shOpts := append(append([]Option{}, h.opts...), WithShards(4))
			sh := aclSwitch(shOpts...)

			var fbRef, fbSh FrameBatch
			var outRef, outSh []Decision
			// Three rounds: cold (all upcalls), warming, fully warm.
			for round := uint64(1); round <= 3; round++ {
				fbRef.Reset()
				fbSh.Reset()
				for _, f := range frames {
					fbRef.Append(f, 1)
					fbSh.Append(f, 1)
				}
				outRef = ref.ProcessFrames(round, &fbRef, outRef)
				outSh = sh.ProcessFrames(round, &fbSh, outSh)
				if len(outRef) != len(outSh) {
					t.Fatalf("round %d: decision counts diverge: %d vs %d", round, len(outRef), len(outSh))
				}
				for i := range outRef {
					if outRef[i].Verdict.Verdict != outSh[i].Verdict.Verdict {
						t.Fatalf("round %d frame %d: unsharded %v, sharded %v",
							round, i, outRef[i].Verdict.Verdict, outSh[i].Verdict.Verdict)
					}
				}
			}
			cr, cs := ref.Counters(), sh.Counters()
			if cr.Packets != cs.Packets || cr.Allowed != cs.Allowed || cr.Denied != cs.Denied {
				t.Fatalf("headline counters diverge:\nunsharded packets=%d allowed=%d denied=%d\n  sharded packets=%d allowed=%d denied=%d",
					cr.Packets, cr.Allowed, cr.Denied, cs.Packets, cs.Allowed, cs.Denied)
			}
			if cr.ParseError != cs.ParseError {
				t.Fatalf("parse errors diverge: %d vs %d", cr.ParseError, cs.ParseError)
			}
		})
	}
}

// TestShardedScalarMatchesBatch checks bursts of one against whole bursts
// on the sharded tiers: the same mix through ProcessFrames on one sharded
// switch and ProcessKey over the extracted keys on another resolves to
// identical verdicts.
func TestShardedScalarMatchesBatch(t *testing.T) {
	scalar := aclSwitch(WithShards(4))
	batch := aclSwitch(WithShards(4))
	var keys []flow.Key
	for i := 0; i < 48; i++ {
		keys = append(keys, tcpKey(0x0a000000|uint64(i), 0xac100002, uint64(30000+i%7), 443))
		keys = append(keys, tcpKey(0xcb007100|uint64(i), 0xac100002, 40000, 22))
	}
	var fb FrameBatch
	for round := uint64(1); round <= 2; round++ {
		out := batch.ProcessFrames(round, keyBurst(&fb, keys), nil)
		for i := range keys {
			d := scalar.ProcessKey(round, fb.Key(i))
			if d.Verdict.Verdict != out[i].Verdict.Verdict {
				t.Fatalf("round %d key %d: scalar %v, batch %v", round, i, d.Verdict.Verdict, out[i].Verdict.Verdict)
			}
		}
	}
}

// TestShardedTraceInstallsWhereLookupsProbe: a traced upcall on a sharded
// switch installs its megaflow by the traced key's flow hash, as the walk
// does, so the flow's next packet finds it. (TraceFrame once carried its
// own upcall, which installed by the masked key's hash: most flows
// upcalled twice.)
func TestShardedTraceInstallsWhereLookupsProbe(t *testing.T) {
	sw := aclSwitch(WithShards(8), WithoutEMC())
	for i := 0; i < 64; i++ {
		frame := pkt.MustBuild(pkt.Spec{
			Src:   netip.AddrFrom4([4]byte{10, 0, byte(i), 1}),
			Dst:   netip.MustParseAddr("172.16.0.2"),
			Proto: pkt.ProtoTCP, SrcPort: uint16(40000 + i), DstPort: 80,
		})
		sw.TraceFrame(1, frame, 1)
		if d, err := sw.Process(1, 1, frame); err != nil || d.Path == PathSlow {
			t.Fatalf("flow %d: packet after its trace: %+v, err %v (want a cache hit)", i, d, err)
		}
	}
}

// TestWithShardsRejectsViolations: New must panic on option combinations
// that cannot honour the ConcurrentTier contract.
func TestWithShardsRejectsViolations(t *testing.T) {
	expectPanic := func(name string, opts ...Option) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: New accepted an option combo that violates the sharded contract", name)
			}
		}()
		New("bad", opts...)
	}
	expectPanic("non-concurrent WithTiers", WithShards(4),
		WithTiers(NewEMCTier(cache.EMCConfig{})))
	expectPanic("SortByHits", WithShards(4),
		WithMegaflow(cache.MegaflowConfig{SortByHits: true}))
	expectPanic("MaskEvictLRU", WithShards(4),
		WithMegaflow(cache.MegaflowConfig{MaskEvictLRU: true}))
	expectPanic("WithTierWrapper", WithShards(4),
		WithTierWrapper(func(t Tier) Tier { return t }))

	// The concurrency-safe combos must construct.
	New("ok", WithShards(4), WithTiers(
		NewShardedEMCTier(cache.EMCConfig{}, 4),
		NewShardedMegaflowTier(cache.MegaflowConfig{}, 4)))
}

// TestSharedPMDPoolSharesState: every PMD of a shared pool views the one
// sharded switch, so a flow warmed through one view answers from cache
// on another, and the single-goroutine options are rejected.
func TestSharedPMDPoolSharesState(t *testing.T) {
	pool := NewSharedPMDPool(3, "shp")
	if !pool.Shared() {
		t.Fatal("NewSharedPMDPool did not mark the pool shared")
	}
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	pool.InstallRule(flowtable.Rule{Priority: 0})

	k := tcpKey(0x0a00a001, 0xac100002, 33000, 443)
	if d := pool.PMD(1).ProcessKey(1, k); d.Path != PathSlow || d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("cold lookup on pmd1: got %v via %v, want slow-path Allow", d.Verdict.Verdict, d.Path)
	}
	// The megaflow minted through pmd1 serves pmd2 without an upcall.
	if d := pool.PMD(2).ProcessKey(2, k); d.Path == PathSlow {
		t.Fatal("pmd2 took the slow path for a flow pmd1 already installed; tiers are not shared")
	}
	if pool.PMD(2).Counters().Upcalls != 0 {
		t.Fatal("pmd2 charged an upcall for a shared-cache hit")
	}
	if pool.PMD(0).ShardedMegaflow() != pool.PMD(1).ShardedMegaflow() {
		t.Fatal("PMD views disagree on the sharded megaflow instance")
	}

	for _, tc := range []struct {
		name string
		opt  Option
	}{
		{"WithConntrack", WithConntrack(conntrack.Config{})},
		{"WithUpcallGuard", WithUpcallGuard(admitAllGuard{})},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewSharedPMDPool accepted %s", tc.name)
				}
			}()
			NewSharedPMDPool(2, "bad", tc.opt)
		}()
	}
}

// TestShardTargetsSurface: the per-shard revalidation targets expose one
// target per megaflow shard, conntrack on shard 0 only, and nil on an
// unsharded hierarchy.
func TestShardTargetsSurface(t *testing.T) {
	if aclSwitch().ShardTargets() != nil {
		t.Fatal("unsharded switch returned shard targets")
	}
	s := aclSwitch(WithShards(4))
	targets := s.ShardTargets()
	if len(targets) != 4 {
		t.Fatalf("got %d shard targets, want 4", len(targets))
	}
	for i, tg := range targets {
		if want := fmt.Sprintf("br0/shard%d", i); tg.Name() != want {
			t.Fatalf("target %d named %q, want %q", i, tg.Name(), want)
		}
		if len(tg.Tiers()) != 1 {
			t.Fatalf("target %d exposes %d tiers, want 1 (its megaflow shard)", i, len(tg.Tiers()))
		}
		if tg.Classifier() == nil {
			t.Fatalf("target %d has no classifier for the revalidation policy check", i)
		}
		if i > 0 && tg.Conntrack() != nil {
			t.Fatalf("target %d carries conntrack; only shard 0 may (single sweep owner)", i)
		}
	}
}

// TestShardedConcurrentPMDTraffic is the multi-writer smoke test for the
// race leg: one goroutine per PMD view pushes bursts through the shared
// sharded switch while the main goroutine runs shard maintenance
// (eviction, flow-limit trims) against the live cache. Verdicts must
// stay correct throughout and the per-view counters must add up.
func TestShardedConcurrentPMDTraffic(t *testing.T) {
	const pmds, rounds, burstLen = 4, 50, 64
	pool := NewSharedPMDPool(pmds, "race")
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	pool.InstallRule(flowtable.Rule{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}})
	pool.InstallRule(flowtable.Rule{Priority: 0})

	var wg sync.WaitGroup
	errs := make(chan error, pmds)
	for p := 0; p < pmds; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sw := pool.PMD(p)
			keys := make([]flow.Key, burstLen)
			var fb FrameBatch
			var out []Decision
			for r := 0; r < rounds; r++ {
				for i := range keys {
					// Half private flows, half shared across PMDs, so
					// installs collide with lookups on the same shards.
					src := 0x0a000000 | uint64(p)<<16 | uint64(r*burstLen+i)
					if i%2 == 0 {
						src = 0x0a7f0000 | uint64(i)
					}
					keys[i] = tcpKey(src, 0xac100002, uint64(30000+i), 443)
				}
				out = sw.ProcessFrames(uint64(r+1), keyBurst(&fb, keys), out)
				for i, d := range out {
					if d.Verdict.Verdict != flowtable.Allow {
						errs <- fmt.Errorf("pmd%d round %d key %d: got %v, want Allow", p, r, i, d.Verdict.Verdict)
						return
					}
				}
			}
		}(p)
	}
	smf := pool.PMD(0).ShardedMegaflow()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for now := uint64(1); ; now++ {
		select {
		case <-done:
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			var total uint64
			for p := 0; p < pmds; p++ {
				total += pool.PMD(p).Counters().Packets
			}
			if want := uint64(pmds * rounds * burstLen); total != want {
				t.Fatalf("per-view packet counters sum to %d, want %d", total, want)
			}
			return
		default:
		}
		for si := 0; si < smf.NumShards(); si++ {
			smf.Shard(si).EvictIdle(now)
		}
		smf.SetFlowLimit(256)
		smf.TrimToLimit()
	}
}
