package revalidator

import (
	"fmt"
	"sync"
	"testing"

	"policyinject/internal/dataplane"
	"policyinject/internal/flowtable"
)

// TestAttachShardedTargets: AttachPool on a shared pool attaches the one
// sharded switch shard-by-shard (not once per PMD view), and a plain
// unsharded switch attaches zero shard targets.
func TestAttachShardedTargets(t *testing.T) {
	pool := dataplane.NewSharedPMDPool(4, "shp")
	rev := New(Config{})
	rev.AttachPool(pool)
	want := pool.PMD(0).ShardedMegaflow().NumShards()
	if len(rev.targets) != want {
		t.Fatalf("shared pool attached %d targets, want one per shard (%d)", len(rev.targets), want)
	}
	if n := New(Config{}).AttachSharded(testSwitch("flat")); n != 0 {
		t.Fatalf("AttachSharded on an unsharded switch attached %d targets, want 0", n)
	}
}

// TestShardedSweepEvicts: per-shard sweeps retire idle flows from a
// sharded hierarchy exactly as a whole-switch sweep would — everything
// installed at t=0 is gone once the idle horizon passes.
func TestShardedSweepEvicts(t *testing.T) {
	sw := dataplane.New("shsw", dataplane.WithShards(4))
	exactRules(func(r flowtable.Rule) { sw.InstallRule(r) }, 64)
	rev := New(Config{MaxIdle: 5})
	if n := rev.AttachSharded(sw); n != 4 {
		t.Fatalf("attached %d shard targets, want 4", n)
	}
	var fb dataplane.FrameBatch
	for _, f := range makeFrames(t, 64) {
		fb.Append(f, 1)
	}
	sw.ProcessFrames(0, &fb, nil)
	smf := sw.ShardedMegaflow()
	if smf.Len() != 64 {
		t.Fatalf("expected 64 megaflows installed, got %d", smf.Len())
	}
	for now := uint64(0); now <= 20; now++ {
		rev.Tick(now)
	}
	if n := smf.Len(); n != 0 {
		t.Fatalf("%d megaflows survived the idle horizon", n)
	}
	if n := smf.NumMasks(); n != 0 {
		t.Fatalf("%d masks survived after all flows expired", n)
	}
}

// TestShardedRevalidatorRace is the -race leg's centrepiece: four PMD
// views push traffic through the shared sharded switch while the
// revalidator's per-shard sweeps run concurrently on the main goroutine.
// No driver-side lock anywhere — the per-shard locks inside the cache are
// the whole synchronisation story.
func TestShardedRevalidatorRace(t *testing.T) {
	const pmds, rounds, flows = 4, 40, 64
	pool := dataplane.NewSharedPMDPool(pmds, "racer")
	exactRules(func(r flowtable.Rule) { pool.InstallRule(r) }, flows)
	rev := New(Config{MaxIdle: 3, Workers: 2})
	rev.AttachPool(pool)

	frames := makeFrames(t, flows)
	var wg sync.WaitGroup
	errs := make(chan error, pmds)
	for p := 0; p < pmds; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			sw := pool.PMD(p)
			var fb dataplane.FrameBatch
			var out []dataplane.Decision
			for r := 0; r < rounds; r++ {
				fb.Reset()
				for i := range flows {
					fb.Append(frames[(p*17+r+i)%flows], 1)
				}
				out = sw.ProcessFrames(uint64(r), &fb, out)
				for i, d := range out {
					if d.Verdict.Verdict != flowtable.Allow {
						errs <- fmt.Errorf("pmd%d round %d key %d: got %v, want Allow", p, r, i, d.Verdict.Verdict)
						return
					}
				}
			}
		}(p)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	now := uint64(0)
loop:
	for {
		select {
		case <-done:
			break loop
		default:
			rev.Tick(now)
			now++
		}
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	// Traffic has stopped: a few more swept horizons drain the caches.
	for end := now + 50; now <= end; now++ {
		rev.Tick(now)
	}
	if n := pool.PMD(0).ShardedMegaflow().Len(); n != 0 {
		t.Fatalf("%d megaflows survived post-traffic sweeps", n)
	}
}
