package cms

import (
	"net/netip"
	"strings"
	"testing"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/revalidator"
)

func cluster(t *testing.T) *Cluster {
	t.Helper()
	c := NewCluster()
	if _, err := c.AddNode("server-1"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddNode("server-2"); err != nil {
		t.Fatal(err)
	}
	return c
}

func key(inPort uint32, src string, dport uint16) flow.Key {
	return flow.FiveTuple{
		Src:     netip.MustParseAddr(src),
		Dst:     netip.MustParseAddr("172.16.0.1"),
		Proto:   6,
		SrcPort: 40000,
		DstPort: dport,
	}.Key(inPort)
}

func TestDeployPodAllocations(t *testing.T) {
	c := cluster(t)
	p1, err := c.DeployPod("acme", "web", "server-1")
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.DeployPod("acme", "db", "server-1")
	if err != nil {
		t.Fatal(err)
	}
	if p1.IP == p2.IP || p1.Port == p2.Port {
		t.Errorf("allocation collision: %v %v", p1, p2)
	}
	if _, err := c.DeployPod("acme", "web", "server-1"); err == nil {
		t.Error("duplicate pod name accepted")
	}
	if _, err := c.DeployPod("acme", "x", "nope"); err == nil {
		t.Error("unknown node accepted")
	}
	if _, err := c.AddNode("server-1"); err == nil {
		t.Error("duplicate node accepted")
	}
}

func TestPodDefaultOpen(t *testing.T) {
	c := cluster(t)
	p, _ := c.DeployPod("acme", "web", "server-1")
	d := p.Node.Switch.ProcessKey(1, key(p.Port, "203.0.113.7", 443))
	if d.Verdict.Verdict != flowtable.Allow {
		t.Fatal("pod without policy must be open")
	}
}

func TestApplyPolicyWhitelists(t *testing.T) {
	c := cluster(t)
	p, _ := c.DeployPod("acme", "web", "server-1")
	err := c.ApplyPolicy("acme", "web", &Policy{
		Name: "web-ingress",
		Ingress: []acl.Entry{
			{Src: netip.MustParsePrefix("10.0.0.0/8"), Proto: 6, DstPort: acl.Port(443)},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := p.Node.Switch
	if d := sw.ProcessKey(1, key(p.Port, "10.1.2.3", 443)); d.Verdict.Verdict != flowtable.Allow {
		t.Error("whitelisted flow denied")
	}
	if d := sw.ProcessKey(1, key(p.Port, "10.1.2.3", 80)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("non-whitelisted port allowed")
	}
	if d := sw.ProcessKey(1, key(p.Port, "203.0.113.7", 443)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("non-whitelisted source allowed")
	}
	if p.policy == nil || p.policy.Name != "web-ingress" {
		t.Error("policy not recorded")
	}
}

func TestPolicyIsScopedToPodPort(t *testing.T) {
	c := cluster(t)
	p1, _ := c.DeployPod("acme", "web", "server-1")
	p2, _ := c.DeployPod("other", "svc", "server-1")
	err := c.ApplyPolicy("acme", "web", &Policy{
		Name:    "lockdown",
		Ingress: nil, // empty whitelist = deny all ingress
	})
	if err != nil {
		t.Fatal(err)
	}
	sw := p1.Node.Switch
	if d := sw.ProcessKey(1, key(p1.Port, "10.0.0.1", 80)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("locked-down pod accepted traffic")
	}
	// The other tenant's pod is untouched.
	if d := sw.ProcessKey(1, key(p2.Port, "10.0.0.1", 80)); d.Verdict.Verdict != flowtable.Allow {
		t.Error("policy leaked onto another pod's port")
	}
}

func TestTenancyEnforced(t *testing.T) {
	c := cluster(t)
	c.DeployPod("acme", "web", "server-1")
	err := c.ApplyPolicy("mallory", "web", &Policy{Name: "evil"})
	if err == nil || !strings.Contains(err.Error(), "does not own") {
		t.Fatalf("cross-tenant policy accepted: %v", err)
	}
}

func TestSrcPortCapabilityGate(t *testing.T) {
	c := cluster(t)
	c.DeployPod("acme", "web", "server-1")
	pol := &Policy{
		Name:    "needs-calico",
		Ingress: []acl.Entry{{Proto: 6, SrcPort: acl.Port(5201)}},
	}
	if err := c.ApplyPolicy("acme", "web", pol); err == nil {
		t.Fatal("source-port filter accepted without the capability")
	}
	pol.AllowSrcPortFilters = true
	if err := c.ApplyPolicy("acme", "web", pol); err != nil {
		t.Fatalf("Calico-style policy rejected: %v", err)
	}
}

func TestPolicyReplacementRemovesOldRules(t *testing.T) {
	c := cluster(t)
	p, _ := c.DeployPod("acme", "web", "server-1")
	c.ApplyPolicy("acme", "web", &Policy{
		Name:    "v1",
		Ingress: []acl.Entry{{Src: netip.MustParsePrefix("10.0.0.0/8")}},
	})
	v1Rules := p.Node.Switch.Rules()
	c.ApplyPolicy("acme", "web", &Policy{
		Name:    "v2",
		Ingress: []acl.Entry{{Src: netip.MustParsePrefix("192.168.0.0/16")}},
	})
	// 10.x must now be denied (v1 allow gone).
	if d := p.Node.Switch.ProcessKey(1, key(p.Port, "10.1.1.1", 80)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("v1 rule survived policy replacement")
	}
	if got := len(p.Node.Switch.Rules()); got != len(v1Rules) {
		t.Errorf("rule count drifted across replacement: %d -> %d", len(v1Rules), got)
	}
}

// TestDeployPodLeavesPoliciesAlone deploys a second pod of the tenant
// beside a locked-down one: the new pod adds its one default-open rule
// and starts open, and the existing pod's policy and verdicts stand.
func TestDeployPodLeavesPoliciesAlone(t *testing.T) {
	c := cluster(t)
	web, _ := c.DeployPod("acme", "web", "server-1")
	if err := c.ApplyPolicy("acme", "web", &Policy{
		Name:    "web-ingress",
		Ingress: []acl.Entry{{Src: netip.MustParsePrefix("10.0.0.0/8"), Proto: 6, DstPort: acl.Port(443)}},
	}); err != nil {
		t.Fatal(err)
	}
	sw := web.Node.Switch
	before := len(sw.Rules())
	db, err := c.DeployPod("acme", "db", "server-1")
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sw.Rules()); got != before+1 {
		t.Errorf("deploy changed the rule count %d -> %d, want one default-open rule", before, got)
	}
	if web.policy == nil || web.policy.Name != "web-ingress" || db.policy != nil {
		t.Errorf("policies after deploy: web %v, db %v", web.policy, db.policy)
	}
	if d := sw.ProcessKey(1, key(web.Port, "10.1.2.3", 80)); d.Verdict.Verdict != flowtable.Deny {
		t.Error("web's policy stopped denying after a deploy")
	}
	if d := sw.ProcessKey(1, key(db.Port, "203.0.113.7", 80)); d.Verdict.Verdict != flowtable.Allow {
		t.Error("new pod is not open by default")
	}
}

// TestAttackViaCMS is the full paper scenario at the control-plane level:
// the attacker tenant injects its malicious policy through the same API as
// everyone else, then its covert stream mints the predicted masks on the
// shared hypervisor switch.
func TestAttackViaCMS(t *testing.T) {
	c := cluster(t)
	// The victim shares server-1 with the attacker.
	victim, _ := c.DeployPod("victim-corp", "backend", "server-1")
	attacker, _ := c.DeployPod("mallory", "probe", "server-1")

	atk := attack.TwoField()
	atk.DstIP = attacker.IP
	theACL, err := atk.BuildACL()
	if err != nil {
		t.Fatal(err)
	}
	// Inject via the CMS as the attacker tenant — an ordinary, valid
	// whitelist policy.
	if err := c.ApplyPolicy("mallory", "probe", &Policy{
		Name:    "innocuous-whitelist",
		Ingress: theACL.Entries,
	}); err != nil {
		t.Fatal(err)
	}

	sw := attacker.Node.Switch
	keys, _ := atk.Keys()
	for i := range keys {
		keys[i].Set(flow.FieldInPort, uint64(attacker.Port))
		sw.ProcessKey(1, keys[i])
	}
	if got := sw.Megaflow().NumMasks(); got < 512 {
		t.Fatalf("attack via CMS minted %d masks, want >= 512", got)
	}
	// And the victim's traffic on the same switch now scans them all.
	d := sw.ProcessKey(2, key(victim.Port, "198.51.100.7", 443))
	if d.MasksScanned < 512 {
		t.Errorf("victim lookup scanned %d masks", d.MasksScanned)
	}
}

func TestClusterString(t *testing.T) {
	c := cluster(t)
	c.DeployPod("acme", "web", "server-1")
	out := c.String()
	if !strings.Contains(out, "pod web") || !strings.Contains(out, "2 nodes") {
		t.Errorf("String() = %q", out)
	}
}

// TestAttachRevalidator: attaching covers the nodes that exist and the
// nodes added afterwards, so the whole cluster stays under one maintenance
// actor: a round dumps the flow each node's pod has cached.
func TestAttachRevalidator(t *testing.T) {
	c := cluster(t) // server-1, server-2
	rev := revalidator.New(revalidator.Config{})
	c.AttachRevalidator(rev)
	if _, err := c.AddNode("server-3"); err != nil {
		t.Fatal(err)
	}
	for i, node := range []string{"server-1", "server-2", "server-3"} {
		p, err := c.DeployPod("acme", "pod-"+node, node)
		if err != nil {
			t.Fatal(err)
		}
		p.Node.Switch.ProcessKey(uint64(i), key(p.Port, "10.0.0.1", 80))
	}
	rev.Tick(0)
	if st := rev.Stats(); st.Rounds != 1 || st.Last.Flows != 3 {
		t.Fatalf("round %d dumped %d flows, want round 1 over the 3 nodes' flows", st.Rounds, st.Last.Flows)
	}
}
