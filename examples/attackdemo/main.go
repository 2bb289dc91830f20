// attackdemo: the full Fig. 3 reproduction — victim iperf throughput and
// megaflow population over a 150-second timeline with the attack starting
// at t=60s. Run with -quick for a 30-second, 512-mask variant on a 10 GbE
// stream of 128-byte frames.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"

	"policyinject/internal/attack"
	"policyinject/internal/sim"
)

func main() {
	quick := flag.Bool("quick", false, "30s timeline with the 512-mask attack")
	flag.Parse()

	cfg := sim.Fig3Config{}
	if *quick {
		// 512 masks cost a victim packet ~1-3 us of sweep: that saturates
		// a 10 GbE stream of small frames, not a 1 GbE one.
		cfg = sim.Fig3Config{
			Duration: 30, AttackStart: 10,
			Attack: attack.TwoField(), FrameLen: 128, VictimGbps: 10,
		}
	}
	fmt.Println("reproducing paper Fig. 3 (this measures real lookup costs; allow a minute)...")
	res, err := sim.RunFig3(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(res)
	fmt.Println()

	// ASCII rendition of the figure: throughput bars + mask counts.
	maxGbps := 0.0
	for _, v := range res.Throughput.V {
		if v > maxGbps {
			maxGbps = v
		}
	}
	step := res.Throughput.Len() / 30
	if step == 0 {
		step = 1
	}
	fmt.Println("  t[s]  victim throughput                         Gbps   masks")
	for i := 0; i < res.Throughput.Len(); i += step {
		bar := int(res.Throughput.V[i] / maxGbps * 40)
		fmt.Printf("  %4.0f  %-40s  %.3f  %6.0f\n",
			res.Throughput.T[i], strings.Repeat("#", bar), res.Throughput.V[i], res.Masks.V[i])
	}
	fmt.Printf("\npaper claim: low-bandwidth covert stream -> 80-90%% degradation / DoS; measured: %.0f%%\n",
		res.Degradation()*100)
}
