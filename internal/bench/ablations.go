package bench

import (
	"fmt"
	"time"

	"liteview/internal/core"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/testbed"
	"liteview/internal/trace"
)

// PingVsTraceroute regenerates ablation D2: the paper argues traceroute
// is "fundamentally more scalable" than the multi-hop ping because it
// ships each hop's quality in its own report instead of consuming
// in-packet padding. We measure both mechanisms on the same 8-hop path
// and compare packet cost against diagnosable path length.
func PingVsTraceroute(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D2", Title: "multi-hop ping vs traceroute on the same 8-hop path"}
	dep, err := lineDeployment(9, 20, seed, 0, 0, routing.DefaultConfig())
	if err != nil {
		return nil, err
	}
	tb, ws := dep.tb, dep.ws

	before := sentControl(tb, ws)
	pingOut, err := ws.Ping(1, core.PingOptions{Dst: 9, Rounds: 1, Length: 16, RouterPort: routing.GeographicPort})
	if err != nil {
		return nil, err
	}
	pingPkts := sentControl(tb, ws) - before

	before = sentControl(tb, ws)
	trOut, err := ws.Traceroute(1, core.TrOptions{Dst: 9, Length: 16, RouterPort: routing.GeographicPort})
	if err != nil {
		return nil, err
	}
	trPkts := sentControl(tb, ws) - before

	pingHops := 0
	if len(pingOut.Results) > 0 {
		for _, h := range pingOut.Results[0].HopQuality {
			if !h.Back {
				pingHops++
			}
		}
	}
	r.Table = trace.NewTable("mechanism", "control_packets", "hops_diagnosed", "max_diagnosable_hops")
	r.Table.AddRow("multi-hop ping (16B probe)", pingPkts, pingHops, stack.MaxPadHops(16))
	r.Table.AddRow("traceroute", trPkts, len(trOut.Reports), "unbounded")

	r.check("ping is cheaper in packets", pingPkts < trPkts,
		"ping %d vs traceroute %d packets", pingPkts, trPkts)
	r.check("ping's reach is bounded by padding", stack.MaxPadHops(16) == 24,
		"16-byte probe records at most %d hops", stack.MaxPadHops(16))
	r.check("traceroute diagnoses every hop", len(trOut.Reports) == 8,
		"%d per-hop reports", len(trOut.Reports))
	r.note("the crossover: below the padding bound ping is cheaper; beyond it only traceroute works, at a quadratic-in-hops report cost")
	return r, nil
}

// AdaptiveBatch regenerates ablation D3: the reliable exchange
// protocol's dynamic batch sizing ("a smaller batch size is preferred
// when packets are more likely to get lost") against a fixed batch on
// a lossy one-hop link.
//
// The exchange protocol exists because the paper's MAC offers no
// link-layer acknowledgements ("broadcasted over the radio"), so this
// ablation runs over a raw, ack-less MAC: end-to-end recovery is
// entirely the exchange protocol's job, which is the regime the batch
// adaptation was designed for.
func AdaptiveBatch(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D3", Title: "reliable exchange: adaptive vs fixed batch on a lossy link"}

	type outcome struct {
		completed  int
		retx       uint64
		frames     uint64
		elapsedSum sim.Time
	}
	const trials = 10
	const messages = 30
	// Each trial is a fully independent simulation (its own engine,
	// medium, and endpoints seeded by trialSeed), so trials fan out over
	// the worker pool; the reduction below walks them in trial order.
	runTrial := func(fixed bool, trial int) (completed bool, elapsed sim.Time, retx, frames uint64, err error) {
		eng := sim.NewEngine(trialSeed(seed, trial))
		model := phys.DefaultModel(trialSeed(seed, trial))
		model.ShadowSigma = 0
		model.AsymSigma = 0
		med := medium.New(eng, model)
		mkEp := func(id phys.NodeID, x float64) (*core.Endpoint, error) {
			rad, err := radio.New(17)
			if err != nil {
				return nil, err
			}
			macCfg := mac.DefaultConfig()
			macCfg.LinkAcks = false // isolate the exchange protocol
			var st *stack.Stack
			m, err := mac.New(eng, med, rad, id, phys.Position{X: x}, macCfg,
				func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
			if err != nil {
				return nil, err
			}
			st = stack.New(eng, m)
			cfg := core.DefaultReliableConfig()
			cfg.MaxRetries = 20
			cfg.FixedBatch = fixed
			if fixed {
				cfg.InitBatch = core.MaxBatch
			}
			return core.NewEndpoint(eng, st, cfg, func(phys.NodeID, []byte, medium.RxInfo, bool) {})
		}
		sender, err := mkEp(1, 0)
		if err != nil {
			return false, 0, 0, 0, err
		}
		// ~50 m puts the link on the PRR cliff: real loss, still
		// workable.
		if _, err := mkEp(2, 50); err != nil {
			return false, 0, 0, 0, err
		}
		msgs := make([][]byte, messages)
		for i := range msgs {
			msgs[i] = []byte{byte(i)}
		}
		start := eng.Now()
		var done bool
		var failed error
		sender.Send(2, msgs, 0, func(err error) { done = true; failed = err })
		eng.Run()
		return done && failed == nil, eng.Now() - start,
			sender.Stats().Retransmissions, sender.Stats().DataSent, nil
	}
	run := func(fixed bool) (outcome, error) {
		type trialOut struct {
			completed bool
			elapsed   sim.Time
			retx      uint64
			frames    uint64
		}
		outs := make([]trialOut, trials)
		err := opt.forEach(trials, func(trial int) error {
			completed, elapsed, retx, frames, err := runTrial(fixed, trial)
			if err != nil {
				return err
			}
			outs[trial] = trialOut{completed, elapsed, retx, frames}
			return nil
		})
		if err != nil {
			return outcome{}, err
		}
		var o outcome
		for _, t := range outs {
			if t.completed {
				o.completed++
				o.elapsedSum += t.elapsed
			}
			o.retx += t.retx
			o.frames += t.frames
		}
		return o, nil
	}
	var adaptive, fixed outcome
	if err := opt.forEach(2, func(i int) error {
		var err error
		if i == 0 {
			adaptive, err = run(false)
		} else {
			fixed, err = run(true)
		}
		return err
	}); err != nil {
		return nil, err
	}
	r.Trials = 2 * trials
	meanMs := func(o outcome) float64 {
		if o.completed == 0 {
			return 0
		}
		return ms(o.elapsedSum / sim.Time(o.completed))
	}
	r.Table = trace.NewTable("policy", "completed", "retx_rounds", "data_frames", "mean_completion_ms")
	r.Table.AddRow("adaptive (AIMD batch)", fmt.Sprintf("%d/%d", adaptive.completed, trials), adaptive.retx, adaptive.frames, meanMs(adaptive))
	r.Table.AddRow("fixed (batch=8)", fmt.Sprintf("%d/%d", fixed.completed, trials), fixed.retx, fixed.frames, meanMs(fixed))
	r.check("adaptive completes at least as often", adaptive.completed >= fixed.completed,
		"%d vs %d transfers completed", adaptive.completed, fixed.completed)
	r.check("adaptive transfers complete reliably", adaptive.completed >= trials*8/10,
		"%d/%d completed on the lossy link", adaptive.completed, trials)
	r.check("adaptive wastes fewer frames", adaptive.frames <= fixed.frames,
		"adaptive sent %d data frames vs fixed %d for the same %d×%d messages",
		adaptive.frames, fixed.frames, trials, messages)
	r.note("loss on this link ≈ 20-25%% per frame; a fixed batch keeps shipping whole windows into it while the adaptive sender shrinks to the loss rate")
	return r, nil
}

// NeighborSharing regenerates ablation D4: the paper's argument for a
// single kernel-owned neighbor table — per-protocol copies multiply the
// RAM cost on a 4 KB mote.
func NeighborSharing(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D4", Title: "kernel-shared neighbor table vs per-protocol copies"}
	_ = seed
	// A mote-resident entry: id(2) + flags(1) + lqi(1) + rssi(1) +
	// prr(1) + last-heard(2) + beacon seq(2) + name(14) = 24 bytes.
	const entryBytes = 24
	const protocols = 3 // geographic, flooding, tree all need neighbors
	capacity := neighbor.DefaultCapacity
	shared := entryBytes * capacity
	perProto := shared * protocols
	r.Table = trace.NewTable("design", "tables", "ram_bytes", "pct_of_4KB")
	r.Table.AddRow("kernel-shared (LiteView)", 1, shared, float64(shared)*100/4096)
	r.Table.AddRow("per-protocol copies", protocols, perProto, float64(perProto)*100/4096)
	r.check("sharing saves RAM", shared < perProto, "%d vs %d bytes", shared, perProto)
	r.check("per-protocol copies are untenable", perProto > 1024,
		"%d bytes is more than a quarter of the mote's RAM", perProto)
	r.note("all three bundled protocols consult the one kernel table; the blacklist flag therefore steers every protocol at once")
	return r, nil
}

// ProtocolComparison regenerates ablation D5: the paper's protocol-
// selection workflow — "users may install each protocol sequentially,
// and measure the protocol performance" with the very same commands.
// We install geographic forwarding and the on-demand protocol side by
// side and ping across eight hops over each: the proactive protocol
// answers immediately, the on-demand one pays a route-discovery cost on
// the first round and then matches.
func ProtocolComparison(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D5", Title: "same ping command over two routing protocols"}
	tbOpt := testbed.DefaultOptions(seed)
	tbOpt.ShadowSigma = 0
	tbOpt.AsymSigma = 0
	tb, err := testbed.Line(9, 20, tbOpt)
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		return nil, err
	}
	if err := tb.AttachOnDemand(routing.DefaultConfig()); err != nil {
		return nil, err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, err
	}
	tb.WarmUp(20 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		return nil, err
	}
	type row struct {
		name           string
		received, lost int
		firstRTT       float64
		laterMeanRTT   float64
		controlPackets uint64
	}
	measure := func(port byte) (row, error) {
		before := sentControl(tb, ws)
		out, err := ws.Ping(1, core.PingOptions{
			Dst: 9, Rounds: 4, Length: 16, RouterPort: port,
			Timeout: 3 * time.Second,
		})
		if err != nil {
			return row{}, err
		}
		rw := row{name: out.Protocol, received: out.Received, lost: out.Lost,
			controlPackets: sentControl(tb, ws) - before}
		n := 0
		for _, res := range out.Results {
			if res.Lost {
				continue
			}
			if res.Seq == 0 {
				rw.firstRTT = float64(res.RTT) / 1000
				continue
			}
			rw.laterMeanRTT += float64(res.RTT) / 1000
			n++
		}
		if n > 0 {
			rw.laterMeanRTT /= float64(n)
		}
		return rw, nil
	}
	geo, err := measure(routing.GeographicPort)
	if err != nil {
		return nil, fmt.Errorf("geographic: %w", err)
	}
	od, err := measure(routing.OnDemandPort)
	if err != nil {
		return nil, fmt.Errorf("on-demand: %w", err)
	}
	r.Table = trace.NewTable("protocol", "recv", "lost", "first_rtt_ms", "warm_rtt_ms", "control_pkts")
	for _, rw := range []row{geo, od} {
		r.Table.AddRow(rw.name, rw.received, rw.lost, rw.firstRTT, rw.laterMeanRTT, rw.controlPackets)
	}
	r.check("both protocols deliver", geo.received >= 3 && od.received >= 3,
		"geo %d/4, on-demand %d/4", geo.received, od.received)
	r.check("discovery makes the first on-demand round slower", od.firstRTT > geo.firstRTT,
		"first round %.1f ms vs %.1f ms", od.firstRTT, geo.firstRTT)
	r.check("warm rounds are comparable", od.laterMeanRTT < geo.laterMeanRTT*3+50,
		"warm %.1f ms vs %.1f ms", od.laterMeanRTT, geo.laterMeanRTT)
	r.note("identical command binaries; the protocol is chosen at runtime by port number")
	return r, nil
}

// EnergyTuning regenerates ablation D6: the deployment-tuning payoff
// the paper's introduction motivates. The same diagnosis workload runs
// at full power and at a tuned-down level that still clears the link
// quality bar; transmit energy falls with the PA current, while the
// totals show why duty cycling (not power tuning) is the real lever —
// idle listening dominates an always-on mote.
func EnergyTuning(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D6", Title: "energy: full power vs tuned power for the same workload"}
	run := func(level int) (txJ, rxJ float64, received int, err error) {
		dep, err := lineDeployment(5, 15, seed, 0, 0, routing.DefaultConfig())
		if err != nil {
			return 0, 0, 0, err
		}
		for _, n := range dep.tb.Nodes {
			if err := n.Radio().SetPowerLevel(level); err != nil {
				return 0, 0, 0, err
			}
		}
		// The workload: three multi-round pings across the line.
		for i := 0; i < 3; i++ {
			out, err := dep.ws.Ping(1, core.PingOptions{Dst: 5, Rounds: 3, Length: 32, RouterPort: routing.GeographicPort})
			if err != nil {
				return 0, 0, 0, err
			}
			received += out.Received
		}
		for _, n := range dep.tb.Nodes {
			st := n.Energy().Stats()
			txJ += st.TXJ
			rxJ += st.RXJ
		}
		return txJ, rxJ, received, nil
	}
	// The two power levels are independent deployments; fan them out.
	var txHi, rxHi, txLo, rxLo float64
	var recvHi, recvLo int
	if err := opt.forEach(2, func(i int) error {
		if i == 0 {
			var err error
			txHi, rxHi, recvHi, err = run(31)
			if err != nil {
				return fmt.Errorf("PA 31: %w", err)
			}
			return nil
		}
		var err error
		txLo, rxLo, recvLo, err = run(15)
		if err != nil {
			return fmt.Errorf("PA 15: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	r.Trials = 2
	r.Table = trace.NewTable("power_level", "tx_J", "rx_idle_J", "pings_received")
	r.Table.AddRow(31, txHi, rxHi, recvHi)
	r.Table.AddRow(15, txLo, rxLo, recvLo)
	r.check("tuned power still delivers", recvLo >= recvHi-1, "%d vs %d rounds received", recvLo, recvHi)
	r.check("tuned power cuts TX energy", txLo < txHi, "%.4f J vs %.4f J", txLo, txHi)
	ratio := txLo / txHi
	want := radio.TXCurrentMA(15) / radio.TXCurrentMA(31)
	r.check("saving tracks the PA current ratio", ratio > want-0.15 && ratio < want+0.15,
		"measured %.2f, datasheet currents predict %.2f", ratio, want)
	r.check("idle listening dominates regardless", rxLo > txLo*10 && rxHi > txHi*10,
		"rx/tx = %.0f× at PA 15", rxLo/txLo)
	r.note("power tuning trims the TX slice; the big slice is the always-on receiver (the motivation for LPL duty cycling)")
	return r, nil
}

// DutyCycling regenerates ablation D7: always-on listening vs low-power
// listening (LPL) for the same deployment and diagnosis workload. The
// duty cycle divides the energy bill by an order of magnitude and
// multiplies the projected lifetime accordingly; the price is wake-up
// latency on every hop, which LiteView's own RTT readings expose.
func DutyCycling(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "D7", Title: "always-on vs low-power listening (LPL)"}
	type outcome struct {
		energyJ   float64
		lifetimeH uint32
		rttMs     float64
		rttMaxMs  float64
		received  int
	}
	run := func(lpl bool) (outcome, error) {
		var o outcome
		tbOpt := testbed.DefaultOptions(seed)
		tbOpt.ShadowSigma = 0
		tbOpt.AsymSigma = 0
		tbOpt.LPL = lpl
		tbOpt.BeaconPeriod = 10 * time.Second
		tb, err := testbed.Line(2, 5, tbOpt)
		if err != nil {
			return o, err
		}
		if _, err := tb.InstallLiteView(); err != nil {
			return o, err
		}
		tb.WarmUp(120 * time.Second)
		ws, err := tb.NewWorkstation(phys.Position{X: -2})
		if err != nil {
			return o, err
		}
		// Cold probes: single rounds spaced beyond the linger window,
		// so each LPL ping pays a fresh wake-up (back-to-back rounds
		// would find the node still awake from the previous exchange).
		n := 0
		for i := 0; i < 4; i++ {
			out, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32, Timeout: time.Second})
			if err != nil {
				return o, err
			}
			o.received += out.Received
			for _, res := range out.Results {
				if !res.Lost {
					ms := float64(res.RTT) / 1000
					o.rttMs += ms
					if ms > o.rttMaxMs {
						o.rttMaxMs = ms
					}
					n++
				}
			}
			tb.Run(2 * time.Second) // let the pair fall back asleep
		}
		if n > 0 {
			o.rttMs /= float64(n)
		}
		for _, node := range tb.Nodes {
			o.energyJ += node.Energy().ConsumedJ()
		}
		es, err := ws.Energy(2)
		if err != nil {
			return o, err
		}
		o.lifetimeH = es.EstimatedLifetimeHours
		return o, nil
	}
	// Always-on and LPL are independent deployments; fan them out.
	var on, lpl outcome
	if err := opt.forEach(2, func(i int) error {
		if i == 0 {
			var err error
			on, err = run(false)
			if err != nil {
				return fmt.Errorf("always-on: %w", err)
			}
			return nil
		}
		var err error
		lpl, err = run(true)
		if err != nil {
			return fmt.Errorf("LPL: %w", err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	r.Trials = 2
	r.Table = trace.NewTable("mac_mode", "deployment_J_2min", "lifetime_h", "rtt_mean_ms", "rtt_max_ms", "pings_recv")
	r.Table.AddRow("always-on", on.energyJ, on.lifetimeH, on.rttMs, on.rttMaxMs, on.received)
	r.Table.AddRow("LPL (100 ms interval)", lpl.energyJ, lpl.lifetimeH, lpl.rttMs, lpl.rttMaxMs, lpl.received)
	r.check("both modes deliver", on.received >= 3 && lpl.received >= 3,
		"always-on %d/4, LPL %d/4", on.received, lpl.received)
	r.check("LPL divides the energy bill", lpl.energyJ < on.energyJ/3,
		"%.2f J vs %.2f J over two minutes", lpl.energyJ, on.energyJ)
	r.check("LPL multiplies the lifetime", lpl.lifetimeH > on.lifetimeH*4,
		"%d h vs %d h projected", lpl.lifetimeH, on.lifetimeH)
	r.check("latency is the price (worst cold probe)", lpl.rttMaxMs > on.rttMaxMs,
		"max RTT %.1f ms vs %.1f ms", lpl.rttMaxMs, on.rttMaxMs)
	r.note("the always-on lifetime matches D6's ~5-day bound; duty cycling is what deployments actually ship")
	return r, nil
}
