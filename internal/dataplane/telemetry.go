package dataplane

import (
	"strconv"

	"policyinject/internal/cache"
	"policyinject/internal/telemetry"
)

// WithTelemetry registers the switch's live instruments into reg and
// turns on hot-path recording: per-burst latency/size/visit histograms
// around ProcessFrames, per-tier LookupBatch latency, and counter
// mirrors of the switch/upcall statistics, all labelled
// switch=<name> (plus tier=<name> for per-tier series).
//
// Every handle is resolved here, once; the record path is atomic adds
// on preallocated cells, so the //lint:hotpath zero-alloc contract of
// the frame path holds with telemetry enabled (see
// TestFramePathZeroAlloc's telemetry legs; the repo benchmark's
// telemetry.overhead_ns_pkt is what it costs a packet).
func WithTelemetry(reg *telemetry.Registry) Option {
	return func(c *config) { c.telemetry = reg }
}

// telemetryHooks bundles the instrument handles one switch records
// into. The counter mirrors are settled as per-burst deltas of the
// plain switch counters (one subtraction per burst), so the cold
// accounting paths stay untouched and the //lint:atomiccounters
// discipline on Counters is preserved.
type telemetryHooks struct {
	bursts      *telemetry.Counter
	frames      *telemetry.Counter
	parseErrs   *telemetry.Counter
	upcalls     *telemetry.Counter
	upcallDrops *telemetry.Counter
	allowed     *telemetry.Counter
	denied      *telemetry.Counter
	installErrs *telemetry.Counter
	tierHits    []*telemetry.Counter

	burstNs      *telemetry.Histogram // wall ns per ProcessFrames burst
	burstFrames  *telemetry.Histogram // frames per burst
	burstUpcalls *telemetry.Histogram // upcalls admitted per burst
	burstScan    *telemetry.Histogram // megaflow scan cost per burst (MasksScanned delta)
	burstVisits  *telemetry.Histogram // physical subtable probes per burst (staged)
	tierNs       []*telemetry.Histogram

	mfEntries   *telemetry.Gauge
	mfMasks     *telemetry.Gauge
	mfFlowLimit *telemetry.Gauge
	ctEntries   *telemetry.Gauge
	tierEntries []*telemetry.Gauge

	// Sharded hierarchies: per-shard occupancy/mask gauges (labelled
	// shard=<i>), refreshed by PublishTelemetry alongside the totals.
	shardEntries []*telemetry.Gauge
	shardMasks   []*telemetry.Gauge

	prevTierHits []uint64 // per-burst tier-hit scratch, len(tiers)
	mf           *cache.Megaflow
	smf          *cache.ShardedMegaflow
}

func newTelemetryHooks(reg *telemetry.Registry, s *Switch) *telemetryHooks {
	sw := telemetry.L("switch", s.name)
	h := &telemetryHooks{
		bursts:       reg.Counter("dp_bursts_total", sw),
		frames:       reg.Counter("dp_frames_total", sw),
		parseErrs:    reg.Counter("dp_parse_errors_total", sw),
		upcalls:      reg.Counter("dp_upcalls_total", sw),
		upcallDrops:  reg.Counter("dp_upcall_drops_total", sw),
		allowed:      reg.Counter("dp_allowed_total", sw),
		denied:       reg.Counter("dp_denied_total", sw),
		installErrs:  reg.Counter("dp_install_errors_total", sw),
		burstNs:      reg.Histogram("dp_burst_ns", sw),
		burstFrames:  reg.Histogram("dp_burst_frames", sw),
		burstUpcalls: reg.Histogram("dp_burst_upcalls", sw),
		burstScan:    reg.Histogram("dp_burst_scan_cost", sw),
		burstVisits:  reg.Histogram("dp_burst_subtable_visits", sw),
		mfEntries:    reg.Gauge("dp_mf_entries", sw),
		mfMasks:      reg.Gauge("dp_mf_masks", sw),
		mfFlowLimit:  reg.Gauge("dp_mf_flow_limit", sw),
		ctEntries:    reg.Gauge("dp_ct_entries", sw),
		prevTierHits: make([]uint64, len(s.tiers)),
		mf:           s.Megaflow(),
		smf:          s.ShardedMegaflow(),
	}
	for _, t := range s.tiers {
		tl := telemetry.L("tier", t.Name())
		h.tierHits = append(h.tierHits, reg.Counter("dp_tier_hits_total", sw, tl))
		h.tierNs = append(h.tierNs, reg.Histogram("dp_tier_lookup_ns", sw, tl))
		h.tierEntries = append(h.tierEntries, reg.Gauge("dp_tier_entries", sw, tl))
	}
	if h.smf != nil {
		for i := 0; i < h.smf.NumShards(); i++ {
			sl := telemetry.L("shard", strconv.Itoa(i))
			h.shardEntries = append(h.shardEntries, reg.Gauge("dp_mf_shard_entries", sw, sl))
			h.shardMasks = append(h.shardMasks, reg.Gauge("dp_mf_shard_masks", sw, sl))
		}
	}
	return h
}

// record settles one ProcessFrames burst: wall latency, burst size,
// and the deltas the burst accrued on the plain switch counters,
// tier-hit slots and megaflow scan statistics.
func (h *telemetryHooks) record(cur, prev *Counters, tierHits []uint64, scan0, visits0, nframes, dt uint64) {
	h.bursts.Inc()
	h.frames.Add(nframes)
	h.burstNs.Record(dt)
	h.burstFrames.Record(nframes)
	h.parseErrs.Add(cur.ParseError - prev.ParseError)
	up := cur.Upcalls - prev.Upcalls
	h.upcalls.Add(up)
	h.burstUpcalls.Record(up)
	h.upcallDrops.Add(cur.UpcallDrops - prev.UpcallDrops)
	h.allowed.Add(cur.Allowed - prev.Allowed)
	h.denied.Add(cur.Denied - prev.Denied)
	h.installErrs.Add(cur.InstallErr - prev.InstallErr)
	for i := range tierHits {
		h.tierHits[i].Add(tierHits[i] - h.prevTierHits[i])
	}
	if h.mf != nil {
		h.burstScan.Record(h.mf.MasksScanned - scan0)
		h.burstVisits.Record(h.mf.SubtableVisits - visits0)
	}
}

// PublishTelemetry refreshes the slow-moving datapath gauges (cache
// populations, mask count, flow limit, conntrack occupancy) from
// current switch state. The scenario timeline calls it once per tick;
// dpctl calls it before a one-shot dump. No-op without WithTelemetry.
func (s *Switch) PublishTelemetry() {
	tel := s.tel
	if tel == nil {
		return
	}
	if tel.mf != nil {
		tel.mfEntries.SetInt(tel.mf.Len())
		tel.mfMasks.SetInt(tel.mf.NumMasks())
		tel.mfFlowLimit.SetInt(tel.mf.FlowLimit())
	}
	if tel.smf != nil {
		tel.mfEntries.SetInt(tel.smf.Len())
		tel.mfMasks.SetInt(tel.smf.NumMasks())
		tel.mfFlowLimit.SetInt(tel.smf.FlowLimit())
		for i := range tel.shardEntries {
			snap := tel.smf.ShardSnapshot(i)
			tel.shardEntries[i].SetInt(snap.Entries)
			tel.shardMasks[i].SetInt(snap.Masks)
		}
	}
	if s.ct != nil {
		tel.ctEntries.SetInt(s.ct.Len())
	}
	for i, t := range s.tiers {
		tel.tierEntries[i].SetInt(t.Stats().Entries)
	}
}
