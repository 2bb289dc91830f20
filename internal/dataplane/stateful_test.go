package dataplane

import (
	"net/netip"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/conntrack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
)

// statefulSwitch builds a conntrack-enabled switch with a stateful
// security group: allow new connections from 10.0.0.0/8 to port 443,
// established both ways, deny the rest.
func statefulSwitch(t testing.TB, ctCfg conntrack.Config) *Switch {
	t.Helper()
	sw := New("sg-hv", WithoutEMC(), WithConntrack(ctCfg))
	group := &acl.ACL{
		Comment:  "web-sg",
		Stateful: true,
	}
	// Two entries, as security groups typically accrete them: a trusted
	// source network and a public service port. (Two entries = two
	// subtables = multiplicative divergence ladders; see
	// attack.Reflected.)
	group.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
	group.Allow(acl.Entry{Proto: 6, DstPort: acl.Port(443)})
	rules, err := group.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return sw
}

func tup(src, dst string, sport, dport uint16) flow.FiveTuple {
	return conntrack.MustTuple(src, dst, 6, sport, dport)
}

func TestStatefulConnectionAdmitted(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{})
	fwd := tup("10.1.2.3", "172.16.0.1", 40000, 443).Key(1)
	rev := tup("172.16.0.1", "10.1.2.3", 443, 40000).Key(2)

	// SYN: recirculated, +new, matches the whitelist, committed.
	d := sw.ProcessKey(1, fwd)
	if d.Verdict.Verdict != flowtable.Allow || !d.Recirculated {
		t.Fatalf("syn: %+v", d)
	}
	if sw.Conntrack().Len() != 1 {
		t.Fatalf("conns = %d", sw.Conntrack().Len())
	}
	// SYN-ACK comes back: the whitelist does NOT cover dst 10/8, yet the
	// established shortcut admits it — the whole point of stateful
	// groups.
	d = sw.ProcessKey(2, rev)
	if d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("syn-ack denied: %+v", d)
	}
	// Data both ways: established.
	if d := sw.ProcessKey(3, fwd); d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("data fwd: %+v", d)
	}
	if d := sw.ProcessKey(3, rev); d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("data rev: %+v", d)
	}
}

func TestStatefulDeniesOutsideWhitelist(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{})
	// Outside the source whitelist AND the service port: recirculated,
	// +new, no entry matches -> deny, and crucially NOT committed.
	d := sw.ProcessKey(1, tup("192.168.1.1", "172.16.0.1", 40000, 22).Key(1))
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatalf("ssh allowed: %+v", d)
	}
	if sw.Conntrack().Len() != 0 {
		t.Fatal("denied flow was committed")
	}
	// An unsolicited "reply-looking" packet is +new (nothing committed):
	// denied even though it targets the whitelisted port range reversed.
	d = sw.ProcessKey(2, tup("172.16.0.1", "10.1.2.3", 443, 40000).Key(2))
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatalf("unsolicited reply allowed: %+v", d)
	}
}

func TestStatefulRuleSetWithoutConntrackFailsClosed(t *testing.T) {
	sw := New("sg-hv", WithoutEMC()) // no conntrack
	group := &acl.ACL{Stateful: true}
	group.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
	rules, err := group.Compile()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	d := sw.ProcessKey(1, tup("10.1.2.3", "172.16.0.1", 1, 2).Key(1))
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("stateful rules without conntrack must fail closed")
	}
}

func TestStatefulConntrackTableFullDrops(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{MaxConns: 2})
	for i := 0; i < 2; i++ {
		d := sw.ProcessKey(1, tup("10.1.2.3", "172.16.0.1", uint16(1000+i), 443).Key(1))
		if d.Verdict.Verdict != flowtable.Allow {
			t.Fatalf("conn %d denied", i)
		}
	}
	// Third connection: commit fails, packet dropped.
	d := sw.ProcessKey(2, tup("10.1.2.3", "172.16.0.1", 3000, 443).Key(1))
	if d.Verdict.Verdict != flowtable.Deny {
		t.Fatal("commit beyond table limit not dropped")
	}
}

// TestStatefulAttackStillBites is the honest modelling claim: conntrack
// changes what the attack hurts, not whether it hurts. The covert stream
// still mints one mask per divergence combination, and while established
// flows hide behind the broad +est megaflow, connection *setup* (and all
// unanswered/denied traffic) scans the whole attacker ladder on the
// tracked pass.
func TestStatefulAttackStillBites(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{})
	masksBefore := sw.Megaflow().NumMasks()

	// Covert stream: diverge from the whitelist values at every depth
	// combination — 8 ip depths (the /8 whitelist) x 16 port depths.
	for d1 := 0; d1 < 8; d1++ {
		for d2 := 0; d2 < 16; d2++ {
			k := tup("10.1.2.3", "172.16.0.1", 40000, 443).Key(1)
			k.Set(flow.FieldIPSrc, 0x0a000000^(1<<uint(31-d1)))
			k.Set(flow.FieldTPDst, uint64(443^(1<<uint(15-d2))))
			if d := sw.ProcessKey(1, k); d.Verdict.Verdict != flowtable.Deny {
				t.Fatalf("covert packet allowed at d1=%d d2=%d", d1, d2)
			}
		}
	}
	minted := sw.Megaflow().NumMasks() - masksBefore
	if minted < 120 { // 8x16 = 128, minus boundary merges
		t.Fatalf("stateful dataplane minted only %d masks", minted)
	}
	// A new (still unanswered) victim connection after the attack: its
	// +new megaflow installs behind the attacker's, so setup packets pay
	// the full scan on the tracked pass.
	fwd := tup("10.1.2.3", "172.16.0.1", 40000, 443).Key(1)
	sw.ProcessKey(2, fwd)
	d := sw.ProcessKey(3, fwd)
	if !d.Recirculated {
		t.Fatal("victim packet skipped recirculation")
	}
	if int(d.MasksScanned) < minted {
		t.Fatalf("setup scanned %d masks; with %d attack masks the tracked pass should pay", d.MasksScanned, minted)
	}
	// Once established (reply seen), traffic rides ONE broad +est
	// megaflow: a second, unrelated established connection needs no new
	// upcall. (Whether that megaflow sits early or late in the scan is a
	// creation-time accident — here it was created post-attack, so even
	// established traffic scans the ladder until eviction reshuffles it;
	// see examples/securitygroup for the pre-attack-created case.)
	rev := tup("172.16.0.1", "10.1.2.3", 443, 40000).Key(2)
	sw.ProcessKey(4, rev)
	sw.ProcessKey(5, fwd) // fwd is now +est; creates/uses the est megaflow
	upcallsBefore := sw.Counters().Upcalls
	fwd2 := tup("10.9.9.9", "172.16.0.1", 41000, 443).Key(1)
	rev2 := tup("172.16.0.1", "10.9.9.9", 443, 41000).Key(2)
	sw.ProcessKey(6, fwd2) // +new setup (its combo megaflow exists or installs)
	sw.ProcessKey(7, rev2) // establish
	d = sw.ProcessKey(8, fwd2)
	if d.Verdict.Verdict != flowtable.Allow {
		t.Fatalf("second connection broken: %+v", d)
	}
	if got := sw.Counters().Upcalls - upcallsBefore; got > 2 {
		t.Fatalf("second established connection caused %d upcalls; the +est megaflow should be shared", got)
	}
}

// TestStatefulMegaflowsAreStateScoped: the cached megaflows carry ct_state
// bits, so a flow's verdict changing from +new to +est is a *different*
// cached entry, never a stale one.
func TestStatefulMegaflowsAreStateScoped(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{})
	fwd := tup("10.1.2.3", "172.16.0.1", 40000, 443)
	rev := tup("172.16.0.1", "10.1.2.3", 443, 40000)
	sw.ProcessKey(1, fwd.Key(1)) // +new, committed
	sw.ProcessKey(2, rev.Key(2)) // reply -> established
	sw.ProcessKey(3, fwd.Key(1)) // now +est
	seen := map[uint64]bool{}
	for _, e := range sw.Megaflow().Entries() {
		m := e.Match()
		ctMask := flow.FieldByID(flow.FieldCTState).GetMask(&m.Mask)
		if ctMask != 0 {
			seen[e.Key.Get(flow.FieldCTState)] = true
		}
	}
	// At least the untracked-dispatch, +new and +est shapes must coexist.
	if len(seen) < 3 {
		t.Fatalf("ct_state-scoped megaflow shapes = %d, want >= 3 (%v)", len(seen), seen)
	}
}

func TestStatefulRevalidatorExpiresConns(t *testing.T) {
	sw := statefulSwitch(t, conntrack.Config{IdleTimeout: 5})
	sw.ProcessKey(1, tup("10.1.2.3", "172.16.0.1", 40000, 443).Key(1))
	if sw.Conntrack().Len() != 1 {
		t.Fatal("precondition")
	}
	sw.RunRevalidator(100)
	if sw.Conntrack().Len() != 0 {
		t.Fatal("idle connection survived the revalidator")
	}
}
