package core_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/shell"
	"liteview/internal/testbed"
)

// deploy builds a line testbed with geographic forwarding, LiteView on
// every node, and a workstation next to node 1.
func deploy(t *testing.T, n int, spacing float64, seed uint64) (*testbed.Testbed, *core.Workstation) {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(n, spacing, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		t.Fatal(err)
	}
	return tb, ws
}

func TestRadioGetAndSet(t *testing.T) {
	_, ws := deploy(t, 3, 15, 1)
	ri, err := ws.RadioGet(1)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Power != 31 || ri.Channel != 17 {
		t.Fatalf("radio info = %+v", ri)
	}
	if err := ws.SetPower(1, 10); err != nil {
		t.Fatal(err)
	}
	ri, err = ws.RadioGet(1)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Power != 10 {
		t.Fatalf("power after set = %d", ri.Power)
	}
	// Out-of-range power is rejected with a status error.
	if err := ws.SetPower(1, 99); err == nil {
		t.Fatal("bad power accepted")
	}
}

// TestNeighborListCommand: the middle node lists its neighbors with
// their link quality, and the shell names each row where it prints it:
// testbed nodes by their names, and the workstation, whose frames the
// node overheard but which is no testbed node, as node-65280.
func TestNeighborListCommand(t *testing.T) {
	tb, ws := deploy(t, 3, 15, 2)
	out, err := ws.NeighborList(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Entries) < 2 {
		t.Fatalf("middle node reported %d neighbors, want ≥ 2", len(out.Entries))
	}
	for _, e := range out.Entries {
		if e.LQI < 50 || e.LQI > 110 {
			t.Fatalf("entry LQI %d out of range", e.LQI)
		}
	}
	// The paper's default: response delay is the full 500 ms window.
	if out.ResponseDelay < 490*time.Millisecond {
		t.Fatalf("response delay = %v, want ≈ 500 ms", out.ResponseDelay)
	}
	var printed strings.Builder
	sh, err := shell.NewForTestbed(tb, ws, &printed)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"cd 192.168.0.2", "neighborsetup list"} {
		if err := sh.Exec(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	for _, name := range []string{"192.168.0.1", "192.168.0.3", fmt.Sprintf("node-%d", core.WorkstationID)} {
		if !strings.Contains(printed.String(), "  "+name+" ") {
			t.Errorf("neighborsetup list does not name %s:\n%s", name, printed.String())
		}
	}
}

func TestBlacklistCommand(t *testing.T) {
	tb, ws := deploy(t, 3, 15, 3)
	if err := ws.Blacklist(1, 2, true); err != nil {
		t.Fatal(err)
	}
	if !tb.Node(0).SysNeighborTable().IsBlacklisted(2) {
		t.Fatal("kernel table not updated")
	}
	out, err := ws.NeighborList(1)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range out.Entries {
		if e.ID == 2 && e.Blacklisted {
			found = true
		}
	}
	if !found {
		t.Fatal("listing does not show the blacklist flag")
	}
	if err := ws.Blacklist(1, 2, false); err != nil {
		t.Fatal(err)
	}
	if tb.Node(0).SysNeighborTable().IsBlacklisted(2) {
		t.Fatal("blacklist remove failed")
	}
	// Unknown neighbor errors.
	if err := ws.Blacklist(1, 99, true); err == nil {
		t.Fatal("blacklisting unknown neighbor accepted")
	}
}

func TestUpdateBeaconPeriod(t *testing.T) {
	tb, ws := deploy(t, 2, 10, 4)
	if err := ws.UpdateBeaconPeriod(1, 700*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if got := tb.Node(0).Neighbors().Period(); got != 700*time.Millisecond {
		t.Fatalf("period = %v", got)
	}
}

func TestSingleHopPingCommand(t *testing.T) {
	_, ws := deploy(t, 2, 5, 5)
	out, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sent != 1 || out.Received != 1 || out.Lost != 0 {
		t.Fatalf("stats: %+v", out)
	}
	r := out.Results[0]
	if r.Lost {
		t.Fatal("round lost on a 5 m link")
	}
	// RTT should be in the low-millisecond range (paper: 4.7 ms for a
	// 32-byte probe).
	rtt := time.Duration(r.RTT) * time.Microsecond
	if rtt < 1*time.Millisecond || rtt > 20*time.Millisecond {
		t.Fatalf("one-hop RTT = %v, want low milliseconds", rtt)
	}
	if r.LQIFwd < 100 || r.LQIBwd < 100 {
		t.Fatalf("LQI = %d/%d at 5 m", r.LQIFwd, r.LQIBwd)
	}
	if r.Power != 31 || r.Channel != 17 {
		t.Fatalf("power/channel = %d/%d", r.Power, r.Channel)
	}
	if out.Protocol != "direct one-hop" {
		t.Fatalf("protocol = %q", out.Protocol)
	}
}

func TestPingMultipleRounds(t *testing.T) {
	_, ws := deploy(t, 2, 5, 6)
	out, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 5, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	if out.Sent != 5 || out.Received != 5 {
		t.Fatalf("stats: sent=%d received=%d lost=%d", out.Sent, out.Received, out.Lost)
	}
	seen := map[int]bool{}
	for _, r := range out.Results {
		seen[r.Seq] = true
	}
	for i := 0; i < 5; i++ {
		if !seen[i] {
			t.Fatalf("round %d missing", i)
		}
	}
}

func TestPingToDeadNodeReportsLoss(t *testing.T) {
	_, ws := deploy(t, 2, 5, 7)
	out, err := ws.Ping(1, core.PingOptions{Dst: 99, Rounds: 2, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	if out.Lost != 2 || out.Received != 0 {
		t.Fatalf("stats: %+v", out)
	}
}

func TestMultiHopPingCommand(t *testing.T) {
	_, ws := deploy(t, 5, 20, 8)
	out, err := ws.Ping(1, core.PingOptions{Dst: 5, Rounds: 1, Length: 16, RouterPort: routing.GeographicPort})
	if err != nil {
		t.Fatal(err)
	}
	if out.Received != 1 {
		t.Fatalf("multi-hop ping lost: %+v", out)
	}
	r := out.Results[0]
	// The padded probe collected forward hops; the reply collected the
	// return path. At 20 m spacing the path is ≥ 2 hops each way.
	fwd, bwd := 0, 0
	for _, h := range r.HopQuality {
		if h.Back {
			bwd++
		} else {
			fwd++
		}
	}
	if fwd < 2 || bwd < 2 {
		t.Fatalf("hop quality fwd=%d bwd=%d, want ≥2 each", fwd, bwd)
	}
	if out.Protocol != "geographic forwarding" {
		t.Fatalf("protocol = %q", out.Protocol)
	}
	rtt := time.Duration(r.RTT) * time.Microsecond
	if rtt < 2*time.Millisecond || rtt > 200*time.Millisecond {
		t.Fatalf("multi-hop RTT = %v", rtt)
	}
}

func TestTracerouteCommand(t *testing.T) {
	_, ws := deploy(t, 4, 20, 9)
	out, err := ws.Traceroute(1, core.TrOptions{Dst: 4, Length: 32, RouterPort: routing.GeographicPort})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) < 2 {
		t.Fatalf("reports = %d, want one per hop (≥2)", len(out.Reports))
	}
	// Hop numbering increases and the last report is final.
	last := out.Reports[len(out.Reports)-1]
	if !last.Final {
		t.Fatalf("last report not final: %+v", last)
	}
	if last.From != 4 {
		t.Fatalf("final report from %d, want 4", last.From)
	}
	for _, rep := range out.Reports {
		if rep.Lost {
			t.Fatalf("hop %d lost on a clean line", rep.Hop)
		}
		rtt := time.Duration(rep.RTT) * time.Microsecond
		if rtt < 500*time.Microsecond || rtt > 100*time.Millisecond {
			t.Fatalf("hop %d RTT = %v", rep.Hop, rtt)
		}
		if rep.LQIFwd < 50 || rep.LQIBwd < 50 {
			t.Fatalf("hop %d LQI %d/%d", rep.Hop, rep.LQIFwd, rep.LQIBwd)
		}
	}
	if out.Protocol != "geographic forwarding" {
		t.Fatalf("protocol = %q", out.Protocol)
	}
	// Response delays at the interpreter grow along the path (allowing
	// the paper's back-to-back anomaly: non-strict ordering).
	if out.Reports[0].Delay >= out.Reports[len(out.Reports)-1].Delay+50*time.Millisecond {
		t.Fatalf("first report (%v) arrived way after last (%v)", out.Reports[0].Delay, out.Reports[len(out.Reports)-1].Delay)
	}
}

func TestTracerouteOverFlooding(t *testing.T) {
	// Flooding has no unicast next hop: traceroute must fail cleanly.
	opt := testbed.DefaultOptions(10)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(3, 15, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.AttachFlooding(routing.DefaultConfig())
	tb.InstallLiteView()
	tb.WarmUp(10 * time.Second)
	ws, _ := tb.NewWorkstation(phys.Position{X: -2})
	_, err = ws.Traceroute(1, core.TrOptions{Dst: 3, RouterPort: routing.FloodingPort})
	if err == nil {
		t.Fatal("traceroute over flooding should fail (no unicast path)")
	}
}

func TestTracerouteOverTree(t *testing.T) {
	// Protocol independence: the same traceroute command works over the
	// collection tree when the destination is the root.
	opt := testbed.DefaultOptions(11)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(4, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.AttachTree(1, routing.DefaultConfig())
	tb.InstallLiteView()
	tb.WarmUp(60 * time.Second)
	ws, _ := tb.NewWorkstation(phys.Position{X: 62}) // next to node 4
	out, err := ws.Traceroute(4, core.TrOptions{Dst: 1, RouterPort: routing.TreePort, MaxHops: 6})
	if err != nil {
		t.Fatal(err)
	}
	// A collection tree routes only toward its root, so intermediate
	// hops cannot ship their reports back to a non-root source: the
	// command honestly returns just the source's own first hop. (This
	// is faithful to real collection protocols; the paper's examples
	// run traceroute over geographic forwarding.)
	if len(out.Reports) == 0 {
		t.Fatal("no reports over the tree")
	}
	first := out.Reports[0]
	if first.Hop != 1 || first.Lost {
		t.Fatalf("first hop report wrong: %+v", first)
	}
	// The first hop must follow the tree parent chain toward the root.
	if first.From != 3 {
		t.Fatalf("first hop via %d, want parent 3", first.From)
	}
}

func TestTracerouteFromRootOverTree(t *testing.T) {
	// From the root the tree cannot route downward at all: NextHop
	// fails and the command errors out cleanly instead of hanging.
	opt := testbed.DefaultOptions(16)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(3, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.AttachTree(1, routing.DefaultConfig())
	tb.InstallLiteView()
	tb.WarmUp(30 * time.Second)
	ws, _ := tb.NewWorkstation(phys.Position{X: -2})
	if _, err := ws.Traceroute(1, core.TrOptions{Dst: 3, RouterPort: routing.TreePort}); err == nil {
		t.Fatal("downward traceroute over a collection tree should fail")
	}
}

func TestBusyControllerRejectsSecondCommand(t *testing.T) {
	tb, ws := deploy(t, 2, 5, 13)
	ctl, err := core.NewController(tb.Node(0), tb.LookupFor(1))
	if err == nil {
		t.Fatal("double install should fail (ports taken)")
	}
	_ = ctl
	_ = ws
}

func TestCommandToOutOfRangeNodeFails(t *testing.T) {
	_, ws := deploy(t, 2, 5, 14)
	// Node 99 does not exist; the reliable transfer gives up.
	if _, err := ws.RadioGet(99); err == nil {
		t.Fatal("command to phantom node succeeded")
	}
}

func TestSetChannelPartitionsManagement(t *testing.T) {
	tb, ws := deploy(t, 2, 5, 15)
	if err := ws.SetChannel(1, 20); err != nil {
		t.Fatal(err)
	}
	if tb.Node(0).Radio().Channel() != 20 {
		t.Fatalf("channel = %d", tb.Node(0).Radio().Channel())
	}
	// The workstation is still on 17: the next command times out until
	// it follows the node to channel 20.
	if _, err := ws.RadioGet(1); err == nil {
		t.Fatal("cross-channel command should fail")
	}
	if err := ws.Radio().SetChannel(20); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.RadioGet(1); err != nil {
		t.Fatalf("command after following channel: %v", err)
	}
}
