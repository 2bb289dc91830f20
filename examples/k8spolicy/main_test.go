package main

import (
	"strings"
	"testing"
)

// segmented deploys the example's cluster with acme's policies applied.
func segmented(t *testing.T) *cluster {
	t.Helper()
	c := deploy()
	if err := c.segment(); err != nil {
		t.Fatal(err)
	}
	return c
}

// packets reports how many frames each server's switch has processed:
// web runs on server-1, the client on server-2.
func packets(c *cluster) (server1, server2 uint64) {
	return c.web.Node.Switch.Counters().Packets,
		c.client.Node.Switch.Counters().Packets
}

func TestSendCrossHost(t *testing.T) {
	c := segmented(t)
	ok, err := deliver(c.web, tcp(c.client.IP, c.web.IP, 443))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("client -> web :443 denied")
	}
	// The client's server does not police the frame: only web's does.
	if s1, s2 := packets(c); s1 != 1 || s2 != 0 {
		t.Errorf("server-1 saw %d frames, server-2 %d; want 1, 0", s1, s2)
	}
}

func TestSendSameHostSkipsLink(t *testing.T) {
	c := segmented(t)
	ok, err := deliver(c.db, tcp(c.web.IP, c.db.IP, 5432))
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("web -> db :5432 denied")
	}
	if s1, s2 := packets(c); s1 != 1 || s2 != 0 {
		t.Errorf("same-host frame reached server-2: server-1 %d, server-2 %d", s1, s2)
	}
}

func TestPolicyDenyNotDelivered(t *testing.T) {
	c := segmented(t)
	for _, tc := range []struct {
		desc string
		src  string
		port uint16
	}{
		{"client -> db :5432 (not whitelisted)", "client", 5432},
		{"probe -> db :5432 (other tenant)", "probe", 5432},
		{"web -> db :443 (wrong port)", "web", 443},
	} {
		ok, err := deliver(c.db, tcp(c.Pod(tc.src).IP, c.db.IP, tc.port))
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Errorf("%s delivered", tc.desc)
		}
	}
	if n := c.db.Node.Switch.Counters().Denied; n != 3 {
		t.Errorf("server-1 denied %d frames, want 3", n)
	}
}

func TestSendErrors(t *testing.T) {
	c := segmented(t)
	ok, err := deliver(c.db, []byte{1, 2, 3})
	if err == nil || ok {
		t.Fatalf("garbage frame: delivered=%v err=%v", ok, err)
	}
	cnt := c.db.Node.Switch.Counters()
	if cnt.ParseError != 1 || cnt.Allowed != 0 {
		t.Errorf("counters after a garbage frame: %+v", cnt)
	}
}

func TestCovertStreamFitsComfortably(t *testing.T) {
	// The paper's premise: the covert stream that keeps mallory's masks
	// resident is noise on a 10 Gbps data-centre link.
	c := segmented(t)
	atk, err := c.inject()
	if err != nil {
		t.Fatal(err)
	}
	plan := atk.Plan(10) // OVS's default idle timeout, seconds
	if used := plan.BandwidthBPS / 10e9; used > 0.001 {
		t.Errorf("covert stream uses %.4f%% of the link; expected well under 0.1%%", used*100)
	}
	// One pass of the stream is enough to swamp server-1's megaflow cache
	// with the count the example prints.
	if n := c.probe.Node.Switch.Megaflow().NumMasks(); n != 434 {
		t.Errorf("server-1 carries %d masks after the covert stream, want 434", n)
	}
}

func TestRunOutput(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"  client -> web :443                     delivered (at server-1)\n",
		"  client -> db  :5432 (not whitelisted)  DENIED (at server-1)\n",
		"  web    -> db  :5432                    delivered (at server-1)\n",
		"  probe  -> db  :5432 (other tenant)     DENIED (at server-1)\n",
		"after mallory's covert stream, server-1 carries 434 megaflow masks\n",
		"acme's next web packet scanned 434 masks to be allow\n",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, b.String())
		}
	}
}
