// k8spolicy: the multi-tenant cloud scenario of the paper's Fig. 1 — two
// tenants deploy pods through the CMS onto a shared two-server cluster,
// protect them with Kubernetes-style network policies, and exchange
// traffic, each frame policed by the destination pod's own hypervisor
// switch. It then shows what a *malicious* policy from one tenant does to
// the shared hypervisor switch.
package main

import (
	"fmt"
	"io"
	"log"
	"net/netip"
	"os"

	"policyinject/internal/acl"
	"policyinject/internal/attack"
	"policyinject/internal/cms"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// cluster is the example's two-server deployment: acme's web and db pods
// and mallory's probe pod share server-1, acme's client runs on server-2.
type cluster struct {
	*cms.Cluster
	web, db, probe, client *cms.Pod
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run plays the scenario and narrates it to w.
func run(w io.Writer) error {
	c := deploy()
	fmt.Fprint(w, c.Cluster)
	if err := c.segment(); err != nil {
		return err
	}

	fmt.Fprintln(w, "\npolicy enforcement across the cluster:")
	for _, s := range []struct {
		desc     string
		src, dst *cms.Pod
		port     uint16
	}{
		{"client -> web :443", c.client, c.web, 443},
		{"client -> db  :5432 (not whitelisted)", c.client, c.db, 5432},
		{"web    -> db  :5432", c.web, c.db, 5432},
		{"probe  -> db  :5432 (other tenant)", c.probe, c.db, 5432},
	} {
		ok, err := deliver(s.dst, tcp(s.src.IP, s.dst.IP, s.port))
		if err != nil {
			return err
		}
		verdict := "DENIED"
		if ok {
			verdict = "delivered"
		}
		fmt.Fprintf(w, "  %-38s %s (at %s)\n", s.desc, verdict, s.dst.Node.Name)
	}

	// Now the attacker tenant injects its (perfectly valid) policy and
	// feeds it covert packets.
	if _, err := c.inject(); err != nil {
		return err
	}
	sw := c.probe.Node.Switch
	fmt.Fprintf(w, "\nafter mallory's covert stream, server-1 carries %d megaflow masks\n",
		sw.Megaflow().NumMasks())
	d, err := sw.Process(3, c.web.Port, tcp(c.client.IP, c.web.IP, 443))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "acme's next web packet scanned %d masks to be %s\n",
		d.MasksScanned, d.Verdict)
	return nil
}

// deploy places the four pods, all still open; fresh names cannot collide.
func deploy() *cluster {
	c := &cluster{Cluster: cms.NewCluster()}
	c.AddNode("server-1")
	c.AddNode("server-2")
	c.web, _ = c.DeployPod("acme", "web", "server-1")
	c.db, _ = c.DeployPod("acme", "db", "server-1")
	c.probe, _ = c.DeployPod("mallory", "probe", "server-1")
	c.client, _ = c.DeployPod("acme", "client", "server-2")
	return c
}

// segment applies acme's microsegmentation: only the web pod may reach
// the db, only the client may reach web.
func (c *cluster) segment() error {
	if err := c.ApplyPolicy("acme", "db", &cms.Policy{
		Name:    "db-ingress",
		Ingress: []acl.Entry{{Src: hostPrefix(c.web.IP), Proto: 6, DstPort: acl.Port(5432)}},
	}); err != nil {
		return err
	}
	return c.ApplyPolicy("acme", "web", &cms.Policy{
		Name:    "web-ingress",
		Ingress: []acl.Entry{{Src: hostPrefix(c.client.IP), Proto: 6, DstPort: acl.Port(443)}},
	})
}

// inject applies mallory's two-field whitelist to the probe pod and
// replays its covert stream once on server-1's switch.
func (c *cluster) inject() (*attack.Attack, error) {
	atk := attack.TwoField()
	atk.DstIP = c.probe.IP
	theACL, _ := atk.BuildACL() // the preset is valid
	if err := c.ApplyPolicy("mallory", "probe", &cms.Policy{
		Name: "innocuous-whitelist", Ingress: theACL.Entries,
	}); err != nil {
		return nil, err
	}
	if _, err := atk.ExecuteFrames(c.probe.Node.Switch, 2, c.probe.Port); err != nil {
		return nil, err
	}
	return atk, nil
}

// deliver polices frame where the CMS installed the ACL — the destination
// pod's switch, at the pod's port — and reports whether it passes.
func deliver(dst *cms.Pod, frame []byte) (bool, error) {
	d, err := dst.Node.Switch.Process(1, dst.Port, frame)
	if err != nil {
		return false, err
	}
	return d.Verdict.Verdict == flowtable.Allow, nil
}

func hostPrefix(a netip.Addr) netip.Prefix { return netip.PrefixFrom(a, 32) }

func tcp(src, dst netip.Addr, port uint16) []byte {
	return pkt.MustBuild(pkt.Spec{
		Src: src, Dst: dst, Proto: pkt.ProtoTCP,
		SrcPort: 40000, DstPort: port, FrameLen: 128,
	})
}
