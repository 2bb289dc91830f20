package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/bits"
	"os"

	"policyinject/internal/burst"
	"policyinject/internal/cache"
	"policyinject/internal/classifier"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// Span names. A tier's lookup span is "cache.<tier name>.lookup", resolved
// when the replayer is built; the rest are fixed.
const (
	spanRoot     = "dataplane.process_frames" // around Switch.ProcessFrames on the measured switch
	spanExtract  = "pkt.extract"
	spanHash     = "flow.hash"
	spanPromote  = "cache.promote"  // installs of a pass's hits into the tiers above
	spanCoalesce = "cache.coalesce" // same-flow run settle: scalar re-probe + AccountRun
	spanUpcall   = "dataplane.upcall"
	spanClassify = "classifier.lookup"
	spanInsert   = "cache.megaflow.insert"
	spanTick     = "revalidator.tick" // around Revalidator.Tick on the measured switch
)

func lookupSpan(tier string) string { return "cache." + tier + ".lookup" }

// span is one timed call into a public function. parent is the index of the
// span that caused it in the same worker's list, -1 for a root. The stage
// spans of a burst are parented to the burst's root span although they run
// after it, on the twin switch: they are the root's work, replayed.
type span struct {
	name       uint8
	parent     int32
	burst      int32
	start, end int64
}

// tracer keeps one worker's spans in a preallocated slice.
type tracer struct {
	worker int
	names  []string
	spans  []span
}

func newTracer(worker, capacity int) *tracer {
	return &tracer{worker: worker, spans: make([]span, 0, capacity)}
}

// nameID interns a span name. Called while building the replayer, never
// inside a timed region.
func (t *tracer) nameID(name string) uint8 {
	for i, n := range t.names {
		if n == name {
			return uint8(i)
		}
	}
	t.names = append(t.names, name)
	return uint8(len(t.names) - 1)
}

func (t *tracer) begin(name uint8, parent, burstID int32) int32 {
	t.spans = append(t.spans, span{name: name, parent: parent, burst: burstID})
	i := int32(len(t.spans) - 1)
	t.spans[i].start = clock()
	return i
}

func (t *tracer) end(i int32) { t.spans[i].end = clock() }

// layerTime is the time spent under one span name.
type layerTime struct {
	self  int64 // duration minus the part covered by child spans
	total int64
	count int
}

// selfTimes folds spans by name: a span's self time is its duration minus
// the durations of the spans it directly caused.
func (t *tracer) selfTimes() map[string]layerTime {
	acc := make([]layerTime, len(t.names))
	for _, s := range t.spans {
		d := s.end - s.start
		acc[s.name].self += d
		acc[s.name].total += d
		acc[s.name].count++
		if s.parent >= 0 {
			acc[t.spans[s.parent].name].self -= d
		}
	}
	out := make(map[string]layerTime, len(acc))
	for i, lt := range acc {
		out[t.names[i]] = lt
	}
	return out
}

// writeSpans appends the worker's spans to path, one JSON object per line.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, t := range tracers {
		for _, s := range t.spans {
			err := enc.Encode(struct {
				Name    string `json:"name"`
				StartNs int64  `json:"start_ns"`
				EndNs   int64  `json:"end_ns"`
				Parent  int32  `json:"parent"`
				BurstID int32  `json:"burst_id"`
				Worker  int    `json:"worker"`
			}{t.names[s.name], s.start, s.end, s.parent, s.burst, t.worker})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayer replays a burst stage by stage against a twin switch through the
// public API of each layer, recording one span per stage. It mirrors the
// batched walk of dataplane.Switch.ProcessFrames step for step — extract,
// hash pass, run detection, one LookupBatch per tier on the shrinking miss
// bitmap with promotion of each pass's hits, upcalls for the residue, then
// the run settle — so the twin stays in the state of the measured switch and
// the stage spans time the work the root span covered.
type replayer struct {
	tr    *tracer
	tiers []dataplane.Tier
	batch []dataplane.BatchTier
	// Install-side capabilities, discovered as dataplane.New discovers them.
	hashed     []dataplane.HashedInstaller
	installer  dataplane.MegaflowInstaller
	hashedMF   dataplane.HashedMegaflowInstaller
	promoteTo  int
	needHashes bool
	cls        *classifier.Classifier

	nRoot, nExtract, nHash, nPromote, nCoalesce, nUpcall, nClassify, nInsert, nTick uint8
	nLookup                                                                         []uint8

	keys   []flow.Key
	errs   []error
	hashes []uint64
	ents   []*cache.Entry
	costs  []int
	runs   []int
	hits   []int
	miss   burst.Bitmap
	prev   burst.Bitmap
}

func newReplayer(tr *tracer, twin *dataplane.Switch) (*replayer, error) {
	rp := &replayer{tr: tr, tiers: twin.Tiers(), cls: twin.Classifier()}
	rp.nRoot, rp.nExtract, rp.nHash = tr.nameID(spanRoot), tr.nameID(spanExtract), tr.nameID(spanHash)
	rp.nPromote, rp.nCoalesce, rp.nUpcall = tr.nameID(spanPromote), tr.nameID(spanCoalesce), tr.nameID(spanUpcall)
	rp.nClassify, rp.nInsert, rp.nTick = tr.nameID(spanClassify), tr.nameID(spanInsert), tr.nameID(spanTick)
	rp.hashed = make([]dataplane.HashedInstaller, len(rp.tiers))
	for i, t := range rp.tiers {
		bt, ok := t.(dataplane.BatchTier)
		if !ok {
			return nil, fmt.Errorf("replay: tier %q has no LookupBatch", t.Name())
		}
		rp.batch = append(rp.batch, bt)
		rp.nLookup = append(rp.nLookup, tr.nameID(lookupSpan(t.Name())))
		if _, ok := t.(dataplane.HashUser); ok {
			rp.needHashes = true
		}
		if hi, ok := t.(dataplane.HashedInstaller); ok {
			rp.hashed[i] = hi
			rp.needHashes = true
		}
		if inst, ok := t.(dataplane.MegaflowInstaller); ok {
			rp.installer, rp.promoteTo = inst, i
		}
	}
	if hmf, ok := rp.installer.(dataplane.HashedMegaflowInstaller); ok {
		rp.hashedMF = hmf
		rp.needHashes = true
	}
	return rp, nil
}

func (rp *replayer) grow(n int) {
	if cap(rp.keys) < n {
		rp.keys = make([]flow.Key, n)
		rp.errs = make([]error, n)
		rp.ents = make([]*cache.Entry, n)
		rp.costs = make([]int, n)
	}
	rp.keys, rp.errs, rp.ents, rp.costs = rp.keys[:n], rp.errs[:n], rp.ents[:n], rp.costs[:n]
}

// replay runs burst b against the twin at logical time now; every span it
// records is caused by root.
func (rp *replayer) replay(root, burstID int32, b *wireBurst, now uint64) error {
	tr := rp.tr
	n := len(b.frames)
	rp.grow(n)
	keys := rp.keys

	sp := tr.begin(rp.nExtract, root, burstID)
	bad := pkt.ExtractBatch(b.frames, b.ports, keys, rp.errs)
	tr.end(sp)
	if bad > 0 {
		return fmt.Errorf("replay: %d frames of burst %d do not parse", bad, burstID)
	}
	var hashes []uint64
	if rp.needHashes && n > 1 {
		sp = tr.begin(rp.nHash, root, burstID)
		rp.hashes = flow.HashKeys(keys, rp.hashes)
		tr.end(sp)
		hashes = rp.hashes
	}

	rp.runs = append(rp.runs[:0], 0)
	for i := 1; i < n; i++ {
		if keys[i] != keys[i-1] {
			rp.runs = append(rp.runs, i)
		}
	}
	rp.miss.Reset(n)
	for _, r := range rp.runs {
		rp.miss.Set(r)
		rp.ents[r], rp.costs[r] = nil, 0
	}
	for ti, bt := range rp.batch {
		if rp.miss.Empty() {
			break
		}
		rp.prev.CopyFrom(&rp.miss)
		sp = tr.begin(rp.nLookup[ti], root, burstID)
		bt.LookupBatch(keys, hashes, now, rp.ents, rp.costs, &rp.miss)
		tr.end(sp)
		rp.hits = rp.prev.AndNot(&rp.miss, rp.hits[:0])
		if ti > 0 && len(rp.hits) > 0 {
			sp = tr.begin(rp.nPromote, root, burstID)
			for _, i := range rp.hits {
				rp.promote(keys[i], hashAt(hashes, i), hashes != nil, rp.ents[i], ti)
			}
			tr.end(sp)
		}
	}

	if !rp.miss.Empty() {
		installs := 0
		words := rp.miss.Words()
		for wi := range words {
			for w := words[wi]; w != 0; w &= w - 1 {
				i := wi<<6 + bits.TrailingZeros64(w)
				rp.upcall(root, burstID, keys[i], hashAt(hashes, i), hashes != nil, now, &installs)
			}
		}
	}

	if len(rp.runs) < n {
		sp = tr.begin(rp.nCoalesce, root, burstID)
		for ri, start := range rp.runs {
			end := n
			if ri+1 < len(rp.runs) {
				end = rp.runs[ri+1]
			}
			if end-start > 1 {
				rp.settleRun(sp, burstID, keys[start], end-start-1, now)
			}
		}
		tr.end(sp)
	}
	return nil
}

func hashAt(hashes []uint64, i int) uint64 {
	if hashes == nil {
		return 0
	}
	return hashes[i]
}

// promote installs ent into tiers [0, upto), through InstallHashed where the
// burst's hash is resident and the tier takes it.
func (rp *replayer) promote(k flow.Key, h uint64, hasHash bool, ent *cache.Entry, upto int) {
	for i, upper := range rp.tiers[:upto] {
		if hasHash && rp.hashed[i] != nil {
			rp.hashed[i].InstallHashed(k, h, ent)
		} else {
			upper.Install(k, ent)
		}
	}
}

// upcall settles one miss of the walk: re-probe the authoritative tier once
// an earlier upcall of the burst has installed something, else classify on
// the slow path, install the megaflow and promote it.
func (rp *replayer) upcall(parent, burstID int32, k flow.Key, h uint64, hasHash bool, now uint64, installs *int) {
	tr := rp.tr
	up := tr.begin(rp.nUpcall, parent, burstID)
	defer tr.end(up)
	if *installs > 0 && rp.installer != nil {
		sp := tr.begin(rp.nLookup[rp.promoteTo], up, burstID)
		ent, _, ok := rp.installer.Lookup(k, now)
		tr.end(sp)
		if ok {
			rp.promote(k, h, hasHash, ent, rp.promoteTo)
			return
		}
	}
	sp := tr.begin(rp.nClassify, up, burstID)
	res := rp.cls.Lookup(k)
	tr.end(sp)
	v := cache.Verdict{Verdict: flowtable.Deny}
	if res.Rule != nil {
		v = res.Rule.Action
	}
	if rp.installer == nil {
		return
	}
	sp = tr.begin(rp.nInsert, up, burstID)
	var ent *cache.Entry
	var err error
	if rp.hashedMF != nil {
		if !hasHash {
			h = k.Hash()
		}
		ent, err = rp.hashedMF.InsertMegaflowHashed(res.Megaflow, v, now, h)
	} else {
		ent, err = rp.installer.InsertMegaflow(res.Megaflow, v, now)
	}
	tr.end(sp)
	if err == nil {
		rp.promote(k, h, hasHash, ent, rp.promoteTo)
		*installs++
	}
}

// settleRun classifies the rest copies of a key whose first copy the walk
// settled: one scalar walk, then AccountRun for the remainder when it landed
// in the top tier, else a scalar walk per copy.
func (rp *replayer) settleRun(parent, burstID int32, k flow.Key, rest int, now uint64) {
	tier, ent, cost := rp.scalarWalk(parent, burstID, k, now)
	if rest--; rest == 0 {
		return
	}
	if tier == 0 {
		if rc, ok := rp.tiers[0].(dataplane.RunCoalescer); ok && rc.AccountRun(ent, rest, cost, now) {
			return
		}
	}
	for ; rest > 0; rest-- {
		rp.scalarWalk(parent, burstID, k, now)
	}
}

// scalarWalk is the per-packet tier walk: the first hit wins and is promoted
// into every tier above; a miss everywhere upcalls. It reports the answering
// tier (-1 for the slow path), its entry and the scan cost.
func (rp *replayer) scalarWalk(parent, burstID int32, k flow.Key, now uint64) (int, *cache.Entry, int) {
	scanned := 0
	for i, t := range rp.tiers {
		ent, cost, ok := t.Lookup(k, now)
		scanned += cost
		if ok {
			rp.promote(k, 0, false, ent, i)
			return i, ent, scanned
		}
	}
	installs := 0
	rp.upcall(parent, burstID, k, 0, false, now, &installs)
	return -1, nil, scanned
}
