// securitygroup: the OpenStack-flavoured stateful variant of the paper's
// ACLs — a conntrack-backed security group on the hypervisor switch. It
// demonstrates the stateful semantics (replies admitted without a reverse
// whitelist) and then answers the natural question — does statefulness
// blunt the policy-injection attack? — with measurements: no; tracked
// traffic pays the mask scan on both pipeline passes.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"policyinject/internal/acl"
	"policyinject/internal/conntrack"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/pkt"
)

// frame renders a five-tuple as the wire frame a packet of it carries.
func frame(t flow.FiveTuple) []byte {
	f, err := pkt.BuildTuple(t, 0)
	if err != nil {
		log.Fatal(err)
	}
	return f
}

func main() {
	sw := dataplane.New("sg-hv",
		dataplane.WithoutEMC(), // kernel-datapath model
		dataplane.WithConntrack(conntrack.Config{}))

	group := &acl.ACL{Comment: "web-sg", Stateful: true}
	group.Allow(acl.Entry{Src: netip.MustParsePrefix("10.0.0.0/8")})
	group.Allow(acl.Entry{Proto: 6, DstPort: acl.Port(443)})
	rules, err := group.Compile()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("security group rules:")
	for _, r := range rules {
		stored := sw.InstallRule(r)
		fmt.Printf("  %s\n", stored)
	}

	show := func(desc string, t flow.FiveTuple, inPort uint32, now uint64) dataplane.Decision {
		d, err := sw.Process(now, inPort, frame(t))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-44s -> %-5s (recirc=%v, masks scanned %d)\n",
			desc, d.Verdict.Verdict, d.Recirculated, d.MasksScanned)
		return d
	}

	fwd := conntrack.MustTuple("10.1.2.3", "172.16.0.1", 6, 40000, 443)
	rev := conntrack.MustTuple("172.16.0.1", "10.1.2.3", 6, 443, 40000)
	scan := conntrack.MustTuple("203.0.113.9", "172.16.0.1", 6, 55555, 22)

	fmt.Println("\nstateful semantics:")
	show("SYN 10.1.2.3 -> :443 (+new, whitelisted)", fwd, 1, 1)
	show("SYN-ACK back (+est shortcut, no reverse rule)", rev, 2, 2)
	show("scanner 203.0.113.9 -> :22 (denied, untracked)", scan, 1, 3)
	fmt.Printf("  %s\n", sw.Conntrack())

	// The attack, against the stateful group: divergence ladders of the
	// two whitelist entries (8 ip depths x 16 port depths).
	fmt.Println("\npolicy injection vs the stateful group:")
	before := sw.Megaflow().NumMasks()
	var covert dataplane.FrameBatch
	for d1 := 0; d1 < 8; d1++ {
		for d2 := 0; d2 < 16; d2++ {
			t := conntrack.MustTuple("10.0.0.0", "172.16.0.1", 6, 40000, 443)
			t.Src = flow.V4Addr(0x0a000000 ^ 1<<uint(31-d1))
			t.DstPort = 443 ^ 1<<uint(15-d2)
			covert.Append(frame(t), 1)
		}
	}
	sw.ProcessFrames(4, &covert, nil)
	fmt.Printf("  covert stream minted %d megaflow masks (had %d)\n",
		sw.Megaflow().NumMasks()-before, before)
	// Established traffic rides the broad, early ct_state=+est megaflow:
	// statefulness shields it.
	show("established victim traffic (broad +est megaflow)", fwd, 1, 5)
	// But CONNECTION SETUP pays: a new client outside 10/8 reaching the
	// public :443 needs a fresh divergence-combination megaflow, whose
	// upcall and first packets scan the whole attacker ladder.
	fresh := conntrack.MustTuple("203.0.113.50", "172.16.0.1", 6, 41000, 443)
	d := show("NEW connection setup after the attack", fresh, 1, 6)
	if d.Verdict.Verdict != flowtable.Allow {
		log.Fatal("victim connection broken")
	}
	if d.MasksScanned < 100 {
		log.Fatalf("expected connection setup to scan the attack masks, got %d", d.MasksScanned)
	}
	fmt.Println("\nconclusion: stateful groups shield *established* flows behind one broad")
	fmt.Println("+est megaflow, but every new connection's setup scans the attacker's")
	fmt.Println("ladder — the attack morphs from a throughput DoS into a connection-")
	fmt.Println("setup DoS. The TSS cost law itself is untouched.")
}
