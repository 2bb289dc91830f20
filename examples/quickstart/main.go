// Quickstart: build a hypervisor switch, install a whitelist ACL, push
// packets through the fast/slow path pipeline, and inspect the megaflow
// cache — the 60-second tour of the library.
package main

import (
	"fmt"
	"log"
	"net/netip"

	"policyinject/internal/acl"
	"policyinject/internal/dataplane"
	"policyinject/internal/pkt"
)

func main() {
	// 1. A switch with the default (OVS-like) cache hierarchy: EMC in
	// front of the megaflow TSS. Options compose other hierarchies, e.g.
	// dataplane.New("br-int", dataplane.WithSMC(cache.SMCConfig{})).
	sw := dataplane.New("br-int")
	sw.AddPort(1, "vm1")

	// 2. A whitelist + default-deny ACL, exactly Fig. 2a of the paper.
	policy, err := acl.Parse(`
		# allow the corporate subnet, drop everything else
		allow src=10.0.0.0/8
		deny *
	`)
	if err != nil {
		log.Fatal(err)
	}
	rules, err := policy.Compile()
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	fmt.Print("installed ACL:\n", policy)

	// 3. Send traffic the way a NIC delivers it: a burst of raw wire
	// frames through the frame-first ingress. One allowed flow, one denied
	// scanner, and one truncated junk frame — which gets its own error
	// slot and RxErrors accounting instead of aborting the burst.
	allowed := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("10.9.9.9"),
		Proto: pkt.ProtoTCP, SrcPort: 44123, DstPort: 443, FrameLen: 1514,
	})
	denied := pkt.MustBuild(pkt.Spec{
		Src: netip.MustParseAddr("203.0.113.66"), Dst: netip.MustParseAddr("10.9.9.9"),
		Proto: pkt.ProtoTCP, SrcPort: 55555, DstPort: 22,
	})
	junk := []byte{0xde, 0xad, 0xbe, 0xef}
	var fb dataplane.FrameBatch
	var out []dataplane.Decision
	for now := uint64(1); now <= 3; now++ {
		fb.Reset()
		fb.Append(allowed, 1)
		fb.Append(denied, 1)
		fb.Append(junk, 1)
		out = sw.ProcessFrames(now, &fb, out)
		for i, d := range out {
			if err := fb.Err(i); err != nil {
				fmt.Printf("t=%d  frame %d unparseable (%v) -> %s\n", now, i, err, d.Verdict)
				continue
			}
			fmt.Printf("t=%d  %-40s -> %s via %s\n", now, pkt.Summary(fb.Frames[i]), d.Verdict, d.Path)
		}
	}
	fmt.Printf("port 1: rx=%d tx=%d rx_errors=%d dropped=%d\n",
		sw.Port(1).RxPackets, sw.Port(1).TxPackets, sw.Port(1).RxErrors, sw.Port(1).RxDropped)

	// 4. What the fast path cached: note the megaflow masks — the data
	// structure the policy-injection attack explodes.
	fmt.Println()
	fmt.Print(sw)
	for _, e := range sw.Megaflow().Entries() {
		fmt.Printf("  megaflow %s -> %s (hits %d)\n", e.Match(), e.Verdict, e.Hits)
	}
}
