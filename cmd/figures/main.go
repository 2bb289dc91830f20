// Command figures regenerates the tables of the paper's evaluation that
// drive the dataplane directly:
//
//	figures -fig 2b          paper Fig. 2b: megaflow table for the simple ACL
//	figures -fig masks       §2 mask-count table: 8 / 512 / 8192
//	figures -fig sweep       §1-§2 degradation claims: cost vs mask count
//	figures -fig all         everything above
//
// Output is plain text tables plus optional CSV/gnuplot blocks (-csv).
//
// The timeline and matrix figures are scenario packs: `scenario run
// scenarios/fig3.yaml` (Fig. 3), flowlimit.yaml, guard-killswitch.yaml and
// mitigation-matrix.yaml print them as human, CSV or JSON reports.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"policyinject/internal/attack"
	"policyinject/internal/classifier"
	"policyinject/internal/dataplane"
	"policyinject/internal/flow"
	"policyinject/internal/flowtable"
	"policyinject/internal/metrics"
	"policyinject/internal/sim"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 2b, masks, sweep, all")
	csv := flag.Bool("csv", false, "also print CSV/gnuplot data blocks")
	flag.Parse()

	ok := false
	run := func(name string, f func(bool) error) {
		if *fig != "all" && *fig != name {
			return
		}
		ok = true
		if err := f(*csv); err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", name, err)
			os.Exit(1)
		}
	}
	run("2b", fig2b)
	run("masks", figMasks)
	run("sweep", figSweep)
	if !ok {
		fmt.Fprintf(os.Stderr, "figures: unknown figure %q\n", *fig)
		os.Exit(2)
	}
}

func header(title string) {
	fmt.Println()
	fmt.Println(title)
	fmt.Println(strings.Repeat("=", len(title)))
}

// fig2b prints the exact megaflow table of paper Fig. 2b: the
// non-overlapping entries OVS synthesises for "allow 10.0.0.0/8, deny *",
// viewed through the first octet of ip_src.
func fig2b(bool) error {
	header("Fig. 2b — megaflow cache entries for ACL {allow ip_src=10.0.0.0/8; deny *}")

	var tbl flowtable.Table
	cls := classifier.New(classifier.Config{})
	var m flow.Match
	m.Key.Set(flow.FieldIPSrc, 0x0a000000)
	m.Mask.SetPrefix(flow.FieldIPSrc, 8)
	for _, r := range []flowtable.Rule{
		{Match: m, Priority: 10, Action: flowtable.Action{Verdict: flowtable.Allow}},
		{Priority: 0},
	} {
		cls.Insert(tbl.Insert(r))
	}

	// One probe per divergence depth, in the figure's row order.
	probes := []uint64{0x0a, 0x80, 0x40, 0x20, 0x10, 0x00, 0x0c, 0x08, 0x0b}
	out := &metrics.Table{Header: []string{"Key", "Mask", "Action"}}
	masks := map[flow.Mask]bool{}
	for _, p := range probes {
		var k flow.Key
		k.Set(flow.FieldIPSrc, p<<24)
		res := cls.Lookup(k)
		key := res.Megaflow.Key.Get(flow.FieldIPSrc) >> 24
		mask := res.Megaflow.Mask.Apply(flow.Key(flow.ExactMask)).Get(flow.FieldIPSrc) >> 24
		out.AddRow(fmt.Sprintf("%08b", key), fmt.Sprintf("%08b", mask), res.Rule.Action.String())
		masks[res.Megaflow.Mask] = true
	}
	fmt.Print(out.String())
	fmt.Printf("entries: %d, distinct masks: %d (paper: \"creates 8 masks and so 8 iterations\")\n",
		len(probes), len(masks))
	return nil
}

// figMasks prints the §2 mask-count table: predicted and injected masks
// for the three attack configurations.
func figMasks(bool) error {
	header("§2 mask counts — predicted vs injected on a live dataplane")
	out := &metrics.Table{Header: []string{"ACL fields", "predicted", "injected", "covert stream"}}
	for _, c := range []struct {
		name string
		atk  *attack.Attack
	}{
		{"ip_src/8 (Fig 2 illustration)", attack.SingleField()},
		{"ip_src + tp_dst (\"2 ACL rules\")", attack.TwoField()},
		{"ip_src + tp_dst + tp_src (Calico)", attack.ThreeField()},
	} {
		sw, err := buildAttackSwitch(c.atk)
		if err != nil {
			return err
		}
		v, err := c.atk.Execute(sw, 1)
		if err != nil {
			return err
		}
		out.AddRow(c.name, v.Predicted, v.Injected, c.atk.Plan(10).String())
	}
	fmt.Print(out.String())
	fmt.Println("paper: 8 masks (Fig 2b), 512 masks (\"slows to 10% of peak\"), 8192 (\"full-blown DoS\")")
	return nil
}

// buildAttackSwitch compiles the attack's ACL into a fresh switch.
func buildAttackSwitch(atk *attack.Attack) (*dataplane.Switch, error) {
	sw := dataplane.New("victim-hv")
	theACL, err := atk.BuildACL()
	if err != nil {
		return nil, err
	}
	rules, err := theACL.Compile()
	if err != nil {
		return nil, err
	}
	for _, r := range rules {
		sw.InstallRule(r)
	}
	return sw, nil
}

func figSweep(csv bool) error {
	header("Degradation sweep — TSS lookup cost vs megaflow mask count (E5)")
	res, err := sim.RunSweep([]int{1, 8, 64, 512, 2048, 8192}, 512)
	if err != nil {
		return err
	}
	fmt.Print(res.Table().String())
	fmt.Println("paper claims: 512 masks -> ~10% of peak; 8192 -> denial of service")
	if csv {
		for _, p := range res.Points {
			fmt.Printf("%d,%d,%.0f,%.4f\n", p.Masks, p.CostPerPkt.Nanoseconds(), p.PPS, p.RelativePeak)
		}
	}
	return nil
}
