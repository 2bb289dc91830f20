package scenario

import (
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/chaos"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/guard"
)

// Pack is one declarative scenario: the full experiment a run executes.
// A pack file binds to one base Pack plus one effective Pack per declared
// variant (Variants); variant packs are the base document with the
// variant's overlay merged on top, so a variant may override any section.
type Pack struct {
	Name        string
	Description string
	File        string
	Tags        []string
	Seed        uint64
	Duration    int // ticks

	Measure  MeasureSpec
	Datapath DatapathSpec
	Reval    *RevalSpec // nil: attach a default revalidator
	Victim   VictimSpec
	Attack   *AttackSpec
	Streams  []StreamSpec
	Tenants  []TenantSpec
	Churn    *ChurnSpec
	Guards   *GuardSpec    // nil: no overload-control guards
	Faults   []chaos.Fault // scheduled fault injections, if any
	Expect   []Expectation

	// Variants are the effective per-variant packs, in declaration order;
	// it always holds at least one entry. On a variant pack itself it is
	// nil and Variant carries the variant's name.
	Variants []*Pack
	Variant  string
}

// MeasureSpec selects how the victim's cost is observed each tick. In
// both modes a tick drives the victim through sim.MeasureCost: 8 bursts of
// exactly CostSamples frames, so the traffic — and every count it leaves —
// is the same in either mode and on any host. "wall" keeps the timing and
// yields Gbps series and summary metrics; "off" discards it, so a run is
// fully deterministic — same pack + seed produce a byte-identical report.
type MeasureSpec struct {
	Mode        string // "wall" (default) or "off"
	CostSamples int    // victim frames a burst, 8 bursts a tick (default 64)
}

// DatapathSpec maps onto dataplane.New options. The zero value models the
// paper's kernel datapath: no EMC, flat megaflow TSS, no conntrack.
// CacheLess (alone) is the flow-cache-less datapath (paper ref [4]): the
// switch holds no cache tier and classifies every packet in its own
// classifier.
type DatapathSpec struct {
	CacheLess     bool
	EMC           bool
	EMCEntries    int
	SMC           bool
	SortByHits    bool
	StagedPruning bool
	MaxMasks      int
	MaskEvictLRU  bool
	Conntrack     bool
	MaxConns      int
	MaxIdle       uint64
}

// RevalSpec configures the revalidator actor attached to the cluster; a
// nil spec attaches the default (fig3's) configuration. Disabled turns
// cluster maintenance off entirely.
type RevalSpec struct {
	Disabled     bool
	Interval     uint64
	Workers      int
	DumpRate     float64
	FlowLimit    int
	MinFlowLimit int
	GrowStep     int
	FixedLimit   bool
	MaxIdle      uint64
	MaxHard      uint64
	PolicyCheck  bool
}

// VictimSpec shapes the measured victim workload and its ingress policy.
type VictimSpec struct {
	Tenant         string // default "victim-corp"
	Pod            string // default "iperf-server"
	Client         netip.Addr
	Gbps           float64
	Flows          int
	FrameLen       int
	Policy         *PolicySpec // default: allow client/24 tcp :5201
	NewClientEvery int         // every Nth packet from a new client (traffic.WithNewClients); 0: off
}

// PolicySpec is a tenant ingress whitelist in pack form.
type PolicySpec struct {
	Stateful bool
	Entries  []EntrySpec
}

// EntrySpec is one whitelist entry.
type EntrySpec struct {
	Src, Dst         netip.Prefix
	Proto            uint8
	SrcPort, DstPort acl.PortMatch
	Deny             bool
	Comment          string
}

// Entry converts to the acl form.
func (e EntrySpec) Entry() acl.Entry {
	out := acl.Entry{
		Src: e.Src, Dst: e.Dst, Proto: e.Proto,
		SrcPort: e.SrcPort, DstPort: e.DstPort, Comment: e.Comment,
	}
	if e.Deny {
		out.Action = flowtable.Deny
	} else {
		out.Action = flowtable.Allow
	}
	return out
}

// AttackSpec declares the policy-injection attack: the malicious ACL's
// target fields (or a named preset) and the covert stream's schedule.
type AttackSpec struct {
	Start    int // tick the ACL lands and the covert stream starts
	Stop     int // tick the covert stream halts (the ACL stays); 0: runs to the end
	Preset   string
	Fields   []attack.TargetField
	PPS      float64 // covert replay rate; 0 = full cycle per CycleTicks
	Cycle    float64 // ticks per full sequence cycle (default 2.5)
	FrameLen int     // covert frame size (default 64)
}

// Build constructs the attack instance.
func (a *AttackSpec) Build() (*attack.Attack, error) {
	var atk *attack.Attack
	switch {
	case a.Preset != "" && len(a.Fields) > 0:
		return nil, fmt.Errorf("attack: preset and fields are mutually exclusive")
	case a.Preset != "":
		build, ok := attackPresets[a.Preset]
		if !ok {
			return nil, fmt.Errorf("attack: unknown preset %q (have %s)", a.Preset, strings.Join(attackPresetNames(), ", "))
		}
		atk = build()
	case len(a.Fields) > 0:
		atk = &attack.Attack{Fields: a.Fields}
	default:
		atk = attack.ThreeField()
	}
	if a.FrameLen != 0 {
		atk.FrameLen = a.FrameLen
	}
	return atk, atk.Validate()
}

var attackPresets = map[string]func() *attack.Attack{
	"single-field": attack.SingleField,
	"two-field":    attack.TwoField,
	"three-field":  attack.ThreeField,
	"v6-two-field": attack.V6TwoField,
}

func attackPresetNames() []string {
	names := make([]string, 0, len(attackPresets))
	for n := range attackPresets {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StreamSpec is one background traffic stream. Kind "mix" draws a seeded
// skewed multi-flow mix (traffic.Mix); kind "pcap" replays a capture file.
// To names the destination pod ("victim" or a tenant pod name); the
// stream enters at that pod's port.
type StreamSpec struct {
	Name     string
	Kind     string // "mix" or "pcap"
	To       string // default "victim"
	Flows    int
	Skew     float64
	PPS      float64
	Subnet   netip.Prefix
	FrameLen int
	File     string // pcap path (kind "pcap")
	Start    int
	Stop     int // 0: runs to the end
}

// TenantSpec deploys one extra tenant pod, optionally with its own policy
// and background stream — the multi-tenant cross-talk dimension.
type TenantSpec struct {
	Name   string
	Pod    string
	Policy *PolicySpec
	Stream *StreamSpec
}

// ChurnSpec drives a policy-churn storm: every Period ticks the target
// pod's policy is recompiled with a rotated extra entry, flushing the
// node's caches while the attack and the revalidator race the rebuild.
type ChurnSpec struct {
	Tenant string // default: the victim tenant
	Pod    string // default: the victim pod
	Start  int
	Stop   int // 0: runs to the end
	Period int
	Rotate int // distinct rotated entries (default 8)
}

// GuardSpec declares the run's overload-control guards: each present
// section enables that guard with the given tuning (zero fields take
// the guard package's defaults).
type GuardSpec struct {
	KillSwitch *guard.KillSwitchConfig
	Admission  *guard.AdmissionConfig
	MaskQuota  *guard.MaskQuotaConfig
}

// Build assembles the configured guard bundle.
func (g *GuardSpec) Build() *guard.Guard {
	return guard.New(guard.Config{KillSwitch: g.KillSwitch, Admission: g.Admission, MaskQuota: g.MaskQuota})
}

// Expectation is one expected-metric assertion checked after the run.
type Expectation struct {
	Variant   string // "" targets the first run
	Metric    string
	Op        string // ==, !=, <, <=, >, >=
	Value     float64
	Tolerance float64 // slack for == / !=
}

var validOps = map[string]bool{"==": true, "!=": true, "<": true, "<=": true, ">": true, ">=": true}

// check evaluates the assertion against an observed value.
func (e Expectation) check(got float64) bool {
	switch e.Op {
	case "==":
		return abs(got-e.Value) <= e.Tolerance
	case "!=":
		return abs(got-e.Value) > e.Tolerance
	case "<":
		return got < e.Value
	case "<=":
		return got <= e.Value
	case ">":
		return got > e.Value
	case ">=":
		return got >= e.Value
	}
	return false
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// HasTag reports whether the pack carries the tag.
func (p *Pack) HasTag(tag string) bool {
	for _, t := range p.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// ---------------------------------------------------------------------------
// Binding: node tree → Pack, with file:line: path-qualified errors.

type bindError struct{ err error }

type binder struct{ file string }

func (b *binder) failf(n *node, path, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	panic(bindError{fmt.Errorf("%s:%d: %s: %s", b.file, n.line, path, msg)})
}

// mapv is a mapping being consumed key by key; done() rejects leftovers.
type mapv struct {
	b    *binder
	n    *node
	path string
	used map[string]bool
}

func (b *binder) mapAt(n *node, path string) *mapv {
	if n.kind != mapNode {
		b.failf(n, path, "expected a mapping, got a %s", n.kindName())
	}
	return &mapv{b: b, n: n, path: path, used: map[string]bool{}}
}

func (m *mapv) child(key string) *node {
	m.used[key] = true
	return m.n.fields[key]
}

func (m *mapv) has(key string) bool { return m.n.fields[key] != nil }

func (m *mapv) at(key string) string {
	if m.path == "" {
		return key
	}
	return m.path + "." + key
}

func (m *mapv) done() {
	for _, k := range m.n.keys {
		if !m.used[k] {
			m.b.failf(m.n.fields[k], m.at(k), "unknown key %q", k)
		}
	}
}

func (m *mapv) scalar(key string) (*node, bool) {
	n := m.child(key)
	if n == nil {
		return nil, false
	}
	if n.kind != scalarNode {
		m.b.failf(n, m.at(key), "expected a scalar, got a %s", n.kindName())
	}
	return n, true
}

func (m *mapv) str(key, def string) string {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	return n.scalar
}

func (m *mapv) intval(key string, def int) int {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.Atoi(n.scalar)
	if err != nil {
		m.b.failf(n, m.at(key), "expected an integer, got %q", n.scalar)
	}
	return v
}

func (m *mapv) uintval(key string, def uint64) uint64 {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseUint(n.scalar, 10, 64)
	if err != nil {
		m.b.failf(n, m.at(key), "expected an unsigned integer, got %q", n.scalar)
	}
	return v
}

func (m *mapv) floatval(key string, def float64) float64 {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	v, err := strconv.ParseFloat(n.scalar, 64)
	if err != nil {
		m.b.failf(n, m.at(key), "expected a number, got %q", n.scalar)
	}
	return v
}

func (m *mapv) boolval(key string, def bool) bool {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	switch n.scalar {
	case "true", "on", "yes":
		return true
	case "false", "off", "no":
		return false
	}
	m.b.failf(n, m.at(key), "expected a boolean, got %q", n.scalar)
	return false
}

func (m *mapv) strs(key string) []string {
	n := m.child(key)
	if n == nil {
		return nil
	}
	if n.kind != seqNode {
		m.b.failf(n, m.at(key), "expected a sequence, got a %s", n.kindName())
	}
	out := make([]string, 0, len(n.items))
	for i, item := range n.items {
		if item.kind != scalarNode {
			m.b.failf(item, fmt.Sprintf("%s[%d]", m.at(key), i), "expected a scalar, got a %s", item.kindName())
		}
		out = append(out, item.scalar)
	}
	return out
}

func (m *mapv) seq(key string) []*node {
	n := m.child(key)
	if n == nil {
		return nil
	}
	if n.kind != seqNode {
		m.b.failf(n, m.at(key), "expected a sequence, got a %s", n.kindName())
	}
	return n.items
}

func (m *mapv) addr(key string, def netip.Addr) netip.Addr {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	a, err := netip.ParseAddr(n.scalar)
	if err != nil {
		m.b.failf(n, m.at(key), "expected an IP address, got %q", n.scalar)
	}
	return a
}

func (m *mapv) prefix(key string, def netip.Prefix) netip.Prefix {
	n, ok := m.scalar(key)
	if !ok {
		return def
	}
	p, err := netip.ParsePrefix(n.scalar)
	if err != nil {
		m.b.failf(n, m.at(key), "expected a CIDR prefix, got %q", n.scalar)
	}
	return p.Masked()
}

func (m *mapv) port(key string) acl.PortMatch {
	n, ok := m.scalar(key)
	if !ok {
		return acl.PortMatch{}
	}
	path := m.at(key)
	parse := func(s string) uint16 {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 10, 16)
		if err != nil {
			m.b.failf(n, path, "expected a port or port range, got %q", n.scalar)
		}
		return uint16(v)
	}
	if from, to, ok := strings.Cut(n.scalar, "-"); ok {
		return acl.PortRange(parse(from), parse(to))
	}
	return acl.Port(parse(n.scalar))
}

func (m *mapv) proto(key string) uint8 {
	n, ok := m.scalar(key)
	if !ok {
		return 0
	}
	switch strings.ToLower(n.scalar) {
	case "tcp":
		return 6
	case "udp":
		return 17
	case "icmp":
		return 1
	case "any", "":
		return 0
	}
	v, err := strconv.ParseUint(n.scalar, 10, 8)
	if err != nil {
		m.b.failf(n, m.at(key), "expected tcp, udp, icmp or a protocol number, got %q", n.scalar)
	}
	return uint8(v)
}

// bindPack binds one effective document (base or variant-merged).
func (b *binder) bindPack(root *node) (p *Pack, err error) {
	defer func() {
		if r := recover(); r != nil {
			be, ok := r.(bindError)
			if !ok {
				panic(r)
			}
			p, err = nil, be.err
		}
	}()
	m := b.mapAt(root, "")
	p = &Pack{
		Name:        m.str("name", ""),
		Description: m.str("description", ""),
		Tags:        m.strs("tags"),
		Seed:        m.uintval("seed", 1),
		Duration:    m.intval("duration", 150),
		File:        b.file,
	}
	if p.Name == "" {
		b.failf(root, "name", "required")
	}
	if p.Duration <= 0 {
		b.failf(m.child("duration"), "duration", "must be positive, got %d", p.Duration)
	}
	p.Measure = b.bindMeasure(m.child("measure"))
	p.Datapath = b.bindDatapath(m.child("datapath"))
	p.Reval = b.bindReval(m.child("revalidator"))
	p.Victim = b.bindVictim(m.child("victim"))
	p.Attack = b.bindAttack(m.child("attack"))
	for i, sn := range m.seq("streams") {
		p.Streams = append(p.Streams, b.bindStream(sn, fmt.Sprintf("streams[%d]", i)))
	}
	for i, tn := range m.seq("tenants") {
		p.Tenants = append(p.Tenants, b.bindTenant(tn, fmt.Sprintf("tenants[%d]", i)))
	}
	p.Churn = b.bindChurn(m.child("churn"))
	p.Guards = b.bindGuards(m.child("guards"))
	for i, fn := range m.seq("faults") {
		p.Faults = append(p.Faults, b.bindFault(fn, fmt.Sprintf("faults[%d]", i)))
	}
	for i, en := range m.seq("expect") {
		p.Expect = append(p.Expect, b.bindExpect(en, fmt.Sprintf("expect[%d]", i)))
	}
	m.used["variants"] = true // consumed by Load, not per-variant binding
	m.done()

	if p.Datapath.CacheLess && p.Datapath != (DatapathSpec{CacheLess: true}) {
		b.failf(m.child("datapath").fields["cache_less"], "datapath.cache_less", "excludes every other datapath key")
	}
	if p.Attack != nil && p.Attack.Start >= p.Duration {
		b.failf(m.child("attack"), "attack.start", "start tick %d is beyond duration %d", p.Attack.Start, p.Duration)
	}
	if p.Attack != nil {
		if _, err := p.Attack.Build(); err != nil {
			b.failf(m.child("attack"), "attack", "%v", err)
		}
	}
	if p.Churn != nil && p.Churn.Period <= 0 {
		b.failf(m.child("churn"), "churn.period", "must be positive")
	}
	if len(p.Faults) > 0 {
		// chaos.New is the single validator for fault specs; it also
		// fills the per-fault defaults in place.
		if _, err := chaos.New(chaos.Config{Faults: p.Faults}); err != nil {
			b.failf(m.child("faults"), "faults", "%v", err)
		}
	}
	return p, nil
}

func (b *binder) bindMeasure(n *node) MeasureSpec {
	spec := MeasureSpec{Mode: "wall", CostSamples: 64}
	if n == nil {
		return spec
	}
	m := b.mapAt(n, "measure")
	spec.Mode = m.str("mode", "wall")
	spec.CostSamples = m.intval("cost_samples", 64)
	m.done()
	if spec.Mode != "wall" && spec.Mode != "off" {
		b.failf(n, "measure.mode", "must be \"wall\" or \"off\", got %q", spec.Mode)
	}
	if spec.CostSamples <= 0 {
		b.failf(n, "measure.cost_samples", "must be positive")
	}
	return spec
}

func (b *binder) bindDatapath(n *node) DatapathSpec {
	var spec DatapathSpec
	if n == nil {
		return spec
	}
	m := b.mapAt(n, "datapath")
	spec.CacheLess = m.boolval("cache_less", false)
	spec.EMC = m.boolval("emc", false)
	spec.EMCEntries = m.intval("emc_entries", 0)
	spec.SMC = m.boolval("smc", false)
	spec.SortByHits = m.boolval("sort_by_hits", false)
	spec.StagedPruning = m.boolval("staged_pruning", false)
	spec.MaxMasks = m.intval("max_masks", 0)
	spec.MaskEvictLRU = m.boolval("mask_evict_lru", false)
	spec.Conntrack = m.boolval("conntrack", false)
	spec.MaxConns = m.intval("max_conns", 0)
	spec.MaxIdle = m.uintval("max_idle", 0)
	m.done()
	if at := m.n.fields["emc_entries"]; at != nil {
		switch {
		case !spec.EMC:
			b.failf(at, "datapath.emc_entries", "sizes the EMC; set emc: true")
		case spec.EMCEntries < 0:
			b.failf(at, "datapath.emc_entries", "must not be negative, got %d; use emc: false", spec.EMCEntries)
		}
	}
	return spec
}

func (b *binder) bindReval(n *node) *RevalSpec {
	if n == nil {
		return nil
	}
	m := b.mapAt(n, "revalidator")
	spec := &RevalSpec{
		Disabled:     m.boolval("disabled", false),
		Interval:     m.uintval("interval", 0),
		Workers:      m.intval("workers", 0),
		DumpRate:     m.floatval("dump_rate", 0),
		FlowLimit:    m.intval("flow_limit", 0),
		MinFlowLimit: m.intval("min_flow_limit", 0),
		GrowStep:     m.intval("grow_step", 0),
		FixedLimit:   m.boolval("fixed_limit", false),
		MaxIdle:      m.uintval("max_idle", 0),
		MaxHard:      m.uintval("max_hard", 0),
		PolicyCheck:  m.boolval("policy_check", false),
	}
	m.done()
	return spec
}

func (b *binder) bindVictim(n *node) VictimSpec {
	spec := VictimSpec{
		Tenant: "victim-corp",
		Pod:    "iperf-server",
		Client: netip.MustParseAddr("10.10.0.5"),
		Gbps:   0.95,
		Flows:  8,
	}
	if n == nil {
		return spec
	}
	m := b.mapAt(n, "victim")
	spec.Tenant = m.str("tenant", spec.Tenant)
	spec.Pod = m.str("pod", spec.Pod)
	spec.Client = m.addr("client", spec.Client)
	spec.Gbps = m.floatval("gbps", spec.Gbps)
	spec.Flows = m.intval("flows", spec.Flows)
	spec.FrameLen = m.intval("frame_len", 0)
	spec.NewClientEvery = m.intval("new_client_every", 0)
	if pn := m.child("policy"); pn != nil {
		spec.Policy = b.bindPolicy(pn, "victim.policy")
	}
	m.done()
	if spec.NewClientEvery < 0 {
		b.failf(n, "victim.new_client_every", "must not be negative")
	}
	return spec
}

func (b *binder) bindPolicy(n *node, path string) *PolicySpec {
	m := b.mapAt(n, path)
	spec := &PolicySpec{Stateful: m.boolval("stateful", false)}
	for i, en := range m.seq("entries") {
		spec.Entries = append(spec.Entries, b.bindEntry(en, fmt.Sprintf("%s.entries[%d]", path, i)))
	}
	m.done()
	if len(spec.Entries) == 0 {
		b.failf(n, path+".entries", "at least one entry required")
	}
	return spec
}

func (b *binder) bindEntry(n *node, path string) EntrySpec {
	m := b.mapAt(n, path)
	spec := EntrySpec{
		Src:     m.prefix("src", netip.Prefix{}),
		Dst:     m.prefix("dst", netip.Prefix{}),
		Proto:   m.proto("proto"),
		SrcPort: m.port("src_port"),
		DstPort: m.port("dst_port"),
		Deny:    m.boolval("deny", false),
		Comment: m.str("comment", ""),
	}
	m.done()
	return spec
}

func (b *binder) bindAttack(n *node) *AttackSpec {
	if n == nil {
		return nil
	}
	m := b.mapAt(n, "attack")
	spec := &AttackSpec{
		Start:    m.intval("start", 60),
		Stop:     m.intval("stop", 0),
		Preset:   m.str("preset", ""),
		PPS:      m.floatval("pps", 0),
		Cycle:    m.floatval("cycle", 2.5),
		FrameLen: m.intval("frame_len", 0),
	}
	for i, fn := range m.seq("fields") {
		spec.Fields = append(spec.Fields, b.bindTargetField(fn, fmt.Sprintf("attack.fields[%d]", i)))
	}
	m.done()
	if spec.Cycle <= 0 {
		b.failf(n, "attack.cycle", "must be positive")
	}
	if spec.Stop != 0 && spec.Stop <= spec.Start {
		b.failf(n, "attack.stop", "must be after start")
	}
	return spec
}

func (b *binder) bindTargetField(n *node, path string) attack.TargetField {
	m := b.mapAt(n, path)
	name := m.str("field", "")
	f, ok := flow.FieldByName(name)
	if !ok {
		b.failf(n, path+".field", "unknown field %q", name)
	}
	var tf attack.TargetField
	tf.Field = f.ID
	tf.Width = m.intval("width", 0)
	if an, ok := m.scalar("allow"); ok {
		tf.Allow = b.allowValue(an, path+".allow", f.ID)
	} else {
		b.failf(n, path+".allow", "required")
	}
	m.done()
	return tf
}

// allowValue parses a whitelisted field value: an integer, an IPv4
// address for the v4 fields, or an IPv6 address (top half) for the hi
// fields.
func (b *binder) allowValue(n *node, path string, id flow.FieldID) uint64 {
	if v, err := strconv.ParseUint(n.scalar, 0, 64); err == nil && !n.quoted {
		return v
	}
	a, err := netip.ParseAddr(n.scalar)
	if err != nil {
		b.failf(n, path, "expected an integer or IP address, got %q", n.scalar)
	}
	switch id {
	case flow.FieldIPSrc, flow.FieldIPDst:
		if !a.Is4() {
			b.failf(n, path, "field wants an IPv4 address, got %q", n.scalar)
		}
		return flow.V4(a)
	case flow.FieldIPv6SrcHi, flow.FieldIPv6DstHi:
		if !a.Is6() || a.Is4() {
			b.failf(n, path, "field wants an IPv6 address, got %q", n.scalar)
		}
		hi, _ := flow.V6(a)
		return hi
	}
	b.failf(n, path, "field %s takes an integer value, got IP %q", id.Name(), n.scalar)
	return 0
}

func (b *binder) bindStream(n *node, path string) StreamSpec {
	m := b.mapAt(n, path)
	spec := StreamSpec{
		Name:     m.str("name", ""),
		Kind:     m.str("kind", "mix"),
		To:       m.str("to", "victim"),
		Flows:    m.intval("flows", 1000),
		Skew:     m.floatval("skew", 0),
		PPS:      m.floatval("pps", 0),
		Subnet:   m.prefix("subnet", netip.Prefix{}),
		FrameLen: m.intval("frame_len", 0),
		File:     m.str("file", ""),
		Start:    m.intval("start", 0),
		Stop:     m.intval("stop", 0),
	}
	m.done()
	switch spec.Kind {
	case "mix":
		if spec.PPS <= 0 {
			b.failf(n, path+".pps", "required for mix streams")
		}
	case "pcap":
		if spec.File == "" {
			b.failf(n, path+".file", "required for pcap streams")
		}
		if spec.PPS <= 0 {
			b.failf(n, path+".pps", "required for pcap streams")
		}
	default:
		b.failf(m.child("kind"), path+".kind", "must be \"mix\" or \"pcap\", got %q", spec.Kind)
	}
	if spec.Name == "" {
		spec.Name = spec.Kind
	}
	if spec.Stop != 0 && spec.Stop <= spec.Start {
		b.failf(n, path+".stop", "must be after start")
	}
	return spec
}

func (b *binder) bindTenant(n *node, path string) TenantSpec {
	m := b.mapAt(n, path)
	spec := TenantSpec{
		Name: m.str("name", ""),
		Pod:  m.str("pod", ""),
	}
	if spec.Name == "" {
		b.failf(n, path+".name", "required")
	}
	if spec.Pod == "" {
		spec.Pod = spec.Name + "-pod"
	}
	if pn := m.child("policy"); pn != nil {
		spec.Policy = b.bindPolicy(pn, path+".policy")
	}
	if sn := m.child("stream"); sn != nil {
		s := b.bindStream(sn, path+".stream")
		if s.To == "victim" {
			s.To = spec.Pod // tenant streams default to their own pod
		}
		spec.Stream = &s
	}
	m.done()
	return spec
}

func (b *binder) bindChurn(n *node) *ChurnSpec {
	if n == nil {
		return nil
	}
	m := b.mapAt(n, "churn")
	spec := &ChurnSpec{
		Tenant: m.str("tenant", ""),
		Pod:    m.str("pod", ""),
		Start:  m.intval("start", 0),
		Stop:   m.intval("stop", 0),
		Period: m.intval("period", 0),
		Rotate: m.intval("rotate", 8),
	}
	m.done()
	if spec.Rotate <= 0 {
		b.failf(n, "churn.rotate", "must be positive")
	}
	return spec
}

func (b *binder) bindGuards(n *node) *GuardSpec {
	if n == nil {
		return nil
	}
	m := b.mapAt(n, "guards")
	spec := &GuardSpec{}
	if kn := m.child("killswitch"); kn != nil {
		km := b.mapAt(kn, "guards.killswitch")
		spec.KillSwitch = &guard.KillSwitchConfig{
			TripFactor:       km.floatval("trip_factor", 0),
			ClearFactor:      km.floatval("clear_factor", 0),
			CollapsedMaxIdle: km.uintval("collapsed_max_idle", 0),
			ClearRounds:      km.intval("clear_rounds", 0),
		}
		km.done()
	}
	if an := m.child("admission"); an != nil {
		am := b.mapAt(an, "guards.admission")
		spec.Admission = &guard.AdmissionConfig{
			QueueDepth:        am.intval("queue_depth", 0),
			PortQuota:         am.intval("port_quota", 0),
			BreakerTripAfter:  am.intval("breaker_trip_after", 0),
			BreakerBackoff:    am.intval("breaker_backoff", 0),
			BreakerMaxBackoff: am.intval("breaker_max_backoff", 0),
			HalfOpenProbes:    am.intval("half_open_probes", 0),
		}
		am.done()
	}
	if qn := m.child("mask_quota"); qn != nil {
		qm := b.mapAt(qn, "guards.mask_quota")
		spec.MaskQuota = &guard.MaskQuotaConfig{PerTenant: qm.intval("per_tenant", 0)}
		qm.done()
	}
	m.done()
	if spec.KillSwitch == nil && spec.Admission == nil && spec.MaskQuota == nil {
		b.failf(n, "guards", "at least one of killswitch, admission, mask_quota required")
	}
	return spec
}

func (b *binder) bindFault(n *node, path string) chaos.Fault {
	m := b.mapAt(n, path)
	f := chaos.Fault{
		Kind:   m.str("kind", ""),
		Start:  m.intval("start", 0),
		Stop:   m.intval("stop", 0),
		Prob:   m.floatval("prob", 0),
		Delay:  m.uintval("delay", 0),
		Factor: m.floatval("factor", 0),
	}
	m.done()
	if f.Kind == "" {
		b.failf(n, path+".kind", "required (one of %s)", strings.Join(chaos.Kinds, ", "))
	}
	return f
}

func (b *binder) bindExpect(n *node, path string) Expectation {
	m := b.mapAt(n, path)
	spec := Expectation{
		Variant:   m.str("variant", ""),
		Metric:    m.str("metric", ""),
		Op:        m.str("op", ""),
		Value:     m.floatval("value", 0),
		Tolerance: m.floatval("tolerance", 0),
	}
	m.done()
	if spec.Metric == "" {
		b.failf(n, path+".metric", "required")
	}
	if !validOps[spec.Op] {
		b.failf(n, path+".op", "must be one of ==, !=, <, <=, >, >=; got %q", spec.Op)
	}
	return spec
}

// Describe renders the pack's canonical one-pack summary — the shape the
// golden-file loader tests pin.
func (p *Pack) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "pack %s seed=%d duration=%d tags=[%s]\n",
		p.Name, p.Seed, p.Duration, strings.Join(p.Tags, " "))
	for _, v := range p.Variants {
		fmt.Fprintf(&sb, "variant %s\n", v.Variant)
		fmt.Fprintf(&sb, "  measure: mode=%s samples=%d\n", v.Measure.Mode, v.Measure.CostSamples)
		d := v.Datapath
		if d.CacheLess {
			sb.WriteString("  datapath: cache_less\n")
		} else {
			fmt.Fprintf(&sb, "  datapath: emc=%v smc=%v sort=%v staged=%v max_masks=%d conntrack=%v\n",
				d.EMC, d.SMC, d.SortByHits, d.StagedPruning, d.MaxMasks, d.Conntrack)
		}
		switch {
		case v.Reval == nil:
			sb.WriteString("  revalidator: default\n")
		case v.Reval.Disabled:
			sb.WriteString("  revalidator: disabled\n")
		default:
			r := v.Reval
			fmt.Fprintf(&sb, "  revalidator: interval=%d workers=%d dump_rate=%g limit=%d..%d fixed=%v\n",
				r.Interval, r.Workers, r.DumpRate, r.MinFlowLimit, r.FlowLimit, r.FixedLimit)
		}
		fmt.Fprintf(&sb, "  victim: tenant=%s pod=%s flows=%d gbps=%g frame=%d stateful=%v",
			v.Victim.Tenant, v.Victim.Pod, v.Victim.Flows, v.Victim.Gbps, v.Victim.FrameLen,
			v.Victim.Policy != nil && v.Victim.Policy.Stateful)
		if v.Victim.NewClientEvery > 0 {
			fmt.Fprintf(&sb, " new_client_every=%d", v.Victim.NewClientEvery)
		}
		sb.WriteString("\n")
		if v.Attack != nil {
			var names []string
			masks := 0
			if atk, err := v.Attack.Build(); err == nil {
				masks = atk.PredictedMasks()
				for _, f := range atk.Fields {
					names = append(names, f.Field.Name())
				}
			}
			stop := ""
			if v.Attack.Stop > 0 {
				stop = fmt.Sprintf(" stop=%d", v.Attack.Stop)
			}
			fmt.Fprintf(&sb, "  attack: start=%d%s fields=[%s] masks=%d\n", v.Attack.Start, stop, strings.Join(names, " "), masks)
		}
		for _, s := range v.Streams {
			fmt.Fprintf(&sb, "  stream %s: kind=%s to=%s flows=%d pps=%g start=%d\n",
				s.Name, s.Kind, s.To, s.Flows, s.PPS, s.Start)
		}
		for _, t := range v.Tenants {
			fmt.Fprintf(&sb, "  tenant %s: pod=%s policy=%v stream=%v\n", t.Name, t.Pod, t.Policy != nil, t.Stream != nil)
		}
		if v.Churn != nil {
			fmt.Fprintf(&sb, "  churn: period=%d start=%d rotate=%d\n", v.Churn.Period, v.Churn.Start, v.Churn.Rotate)
		}
		if v.Guards != nil {
			g := v.Guards
			fmt.Fprintf(&sb, "  guards: killswitch=%v admission=%v mask_quota=%v\n",
				g.KillSwitch != nil, g.Admission != nil, g.MaskQuota != nil)
		}
		for _, f := range v.Faults {
			fmt.Fprintf(&sb, "  fault %s: start=%d stop=%d prob=%g delay=%d factor=%g\n",
				f.Kind, f.Start, f.Stop, f.Prob, f.Delay, f.Factor)
		}
	}
	for _, e := range p.Expect {
		v := e.Variant
		if v == "" {
			v = "*"
		}
		fmt.Fprintf(&sb, "expect %s: %s %s %g (tol %g)\n", v, e.Metric, e.Op, e.Value, e.Tolerance)
	}
	return sb.String()
}
