package bench

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"liteview/internal/core"
	"liteview/internal/fault"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
	"liteview/internal/trace"
)

// recAppPort carries the recovery experiment's application traffic.
const recAppPort byte = 100

// recTrafficPeriod is the offered-load interval: one packet per period
// from the source toward the sink.
const recTrafficPeriod = 100 * time.Millisecond

// diamondDeployment builds the four-node diamond the recovery
// experiment routes through:
//
//	      2 (22,-8)
//	     / \
//	1 (0,0) 4 (44,0)
//	     \ /
//	      3 (22,8)
//
// Nodes 2 and 3 are equidistant relays; greedy geographic forwarding
// breaks the tie toward the lower ID, so the primary path is 1→2→4 and
// node 3 is the guaranteed alternate the self-healing layer can fall
// back to.
func diamondDeployment(seed uint64) (*deployment, error) {
	positions := []phys.Position{
		{X: 0, Y: 0},
		{X: 22, Y: -8},
		{X: 22, Y: 8},
		{X: 44, Y: 0},
	}
	// Zero the shadowing so the relay choice is pure geometry: with
	// random per-link shadowing the "primary" relay would vary by seed
	// and the fault would sometimes hit the idle one.
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Custom(positions, opt)
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
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

// recOutcome summarizes one reroute measurement. It is a flat value
// type so the determinism check can compare two runs with ==.
type recOutcome struct {
	deliveredBefore int
	deliveredAfter  int
	// rerouteMs is virtual time from the fault to the first delivery
	// over the alternate path (-1 when traffic never recovered).
	rerouteMs     float64
	linkRepairs   uint64
	altForwards   uint64
	suspectEvents int
	repairEvents  int
}

// measureReroute deploys the diamond, offers periodic traffic 1→4,
// injects f two seconds in, and measures how long delivery takes to
// resume through the alternate relay. The full telemetry stream is
// returned serialized for byte-level determinism comparison. stem names
// the telemetry artifact (recover-<stem>); it must be unique per call
// so concurrent scenarios never write the same file.
func measureReroute(seed uint64, opt Options, stem string, f fault.Fault) (_ recOutcome, _ []byte, err error) {
	dep, err := diamondDeployment(seed)
	if err != nil {
		return recOutcome{}, nil, err
	}
	var out recOutcome
	var stream bytes.Buffer
	jsonl, endJSONL := telemetry.NewJSONL(&stream)
	rec := dep.tb.Telemetry()
	rec.AddSink(jsonl)
	rec.AddSink(func(e *telemetry.Event) {
		switch e.Kind {
		case "link-suspect":
			out.suspectEvents++
		case "route-repair":
			out.repairEvents++
		}
	})
	finish := traceTo(opt, "recover-"+stem, rec)
	defer finish(&err)
	rec.Start()
	var deliveries []sim.Time
	err = dep.tb.Nodes[3].Stack().Subscribe(recAppPort, func(*stack.Packet, phys.NodeID, medium.RxInfo) {
		deliveries = append(deliveries, dep.tb.Eng.Now())
	})
	if err != nil {
		return recOutcome{}, nil, err
	}
	r1, ok := dep.tb.Router(routing.GeographicPort, 1)
	if !ok {
		return recOutcome{}, nil, errors.New("bench: no router at node 1")
	}
	stopTraffic := false
	var tick func()
	tick = func() {
		if stopTraffic {
			return
		}
		_ = r1.SendTo(4, recAppPort, []byte("self-heal"), false, false)
		dep.tb.Eng.After(recTrafficPeriod, tick)
	}
	dep.tb.Eng.After(recTrafficPeriod, tick)

	dep.tb.Run(2 * time.Second)
	out.deliveredBefore = len(deliveries)
	faultAt := dep.tb.Eng.Now()
	f.At = faultAt
	if _, err := dep.tb.FaultInjector().Schedule(f); err != nil {
		return recOutcome{}, nil, err
	}
	dep.tb.Run(5 * time.Second)
	stopTraffic = true

	out.rerouteMs = -1
	for _, at := range deliveries[out.deliveredBefore:] {
		if out.rerouteMs < 0 {
			out.rerouteMs = ms(at - faultAt)
		}
		out.deliveredAfter++
	}
	out.linkRepairs = r1.Stats().LinkRepairs
	if r3, ok := dep.tb.Router(routing.GeographicPort, 3); ok {
		out.altForwards = r3.Stats().Forwarded
	}
	rec.Stop()
	if err := endJSONL(); err != nil {
		return recOutcome{}, nil, err
	}
	return out, stream.Bytes(), nil
}

// Recovery runs the self-healing experiment: data-driven link
// estimation plus route repair must reroute traffic around a crashed
// relay (and a blacked-out link) within a bounded number of virtual
// milliseconds, a faulted traceroute must return the per-hop reports it
// did collect instead of failing whole, and the workstation's circuit
// breaker must fail fast on a node that has stopped answering.
func Recovery(seed uint64, opt Options) (*Result, error) {
	r := &Result{ID: "RECOVER", Title: "self-healing: reroute after relay failure (4-node diamond)"}
	r.Table = trace.NewTable("scenario", "delivered_before", "delivered_after", "reroute_ms", "repairs", "alt_forwards")

	// The three reroute measurements (crash, blackout, and the crash
	// determinism replay) are independent deployments; fan them out and
	// tabulate in order.
	reroutes := []struct {
		stem string
		f    fault.Fault
	}{
		{"crash", fault.Fault{Kind: fault.NodeCrash, Node: 2}},
		{"blackout", fault.Fault{Kind: fault.LinkBlackout, A: 1, B: 2}},
		{"crash-replay", fault.Fault{Kind: fault.NodeCrash, Node: 2}},
	}
	recOuts := make([]recOutcome, len(reroutes))
	recTraces := make([][]byte, len(reroutes))
	if err := opt.forEach(len(reroutes), func(i int) error {
		out, tr, err := measureReroute(seed, opt, reroutes[i].stem, reroutes[i].f)
		if err != nil {
			return fmt.Errorf("%s: %w", reroutes[i].stem, err)
		}
		recOuts[i], recTraces[i] = out, tr
		return nil
	}); err != nil {
		return nil, err
	}
	r.Trials = len(reroutes) + 1 // plus the degradation deployment below

	// Scenario 1: the primary relay crashes mid-stream.
	crash, crashTrace := recOuts[0], recTraces[0]
	r.Table.AddRow("crash relay 2", crash.deliveredBefore, crash.deliveredAfter,
		fmt.Sprintf("%.1f", crash.rerouteMs), crash.linkRepairs, crash.altForwards)
	r.check("crash: traffic flowed before the fault", crash.deliveredBefore > 0,
		"%d deliveries in 2 s", crash.deliveredBefore)
	r.check("crash: traffic rerouted", crash.rerouteMs >= 0 && crash.deliveredAfter > 0,
		"%d deliveries after the crash", crash.deliveredAfter)
	r.check("crash: reroute within 2 s of virtual time",
		crash.rerouteMs >= 0 && crash.rerouteMs <= 2000, "time-to-reroute %.1f ms", crash.rerouteMs)
	r.check("crash: repair was data-driven", crash.linkRepairs >= 1 && crash.suspectEvents >= 1,
		"%d link repair(s), %d link-suspect event(s), %d route-repair event(s)",
		crash.linkRepairs, crash.suspectEvents, crash.repairEvents)
	r.check("crash: alternate relay carried traffic", crash.altForwards > 0,
		"node 3 forwarded %d packet(s)", crash.altForwards)

	// Scenario 2: the primary link blacks out but the relay stays up —
	// same repair loop, different fault class.
	black := recOuts[1]
	r.Table.AddRow("blackout 1-2", black.deliveredBefore, black.deliveredAfter,
		fmt.Sprintf("%.1f", black.rerouteMs), black.linkRepairs, black.altForwards)
	r.check("blackout: traffic rerouted", black.rerouteMs >= 0 && black.deliveredAfter > 0,
		"%d deliveries after the blackout, first %.1f ms in", black.deliveredAfter, black.rerouteMs)

	// Determinism: the crash scenario replayed on the same seed must
	// reproduce the outcome and the telemetry stream byte for byte.
	crash2, crashTrace2 := recOuts[2], recTraces[2]
	r.check("determinism: same seed, same outcome", crash == crash2,
		"reroute %.1f/%.1f ms, %d/%d deliveries",
		crash.rerouteMs, crash2.rerouteMs, crash.deliveredAfter, crash2.deliveredAfter)
	r.check("determinism: byte-identical telemetry trace", bytes.Equal(crashTrace, crashTrace2),
		"%d vs %d bytes of JSONL", len(crashTrace), len(crashTrace2))

	// Scenario 3: graceful degradation at the workstation. A traceroute
	// issued right after the crash returns the per-hop reports it could
	// collect — naming the failing hop — rather than failing whole; once
	// the estimator has condemned the dead link, the same command
	// succeeds over the alternate relay. Repeated command failures to
	// the dead node then open its circuit breaker: the fourth attempt is
	// rejected instantly instead of burning another response window.
	dep, err := diamondDeployment(seed)
	if err != nil {
		return nil, fmt.Errorf("degradation: %w", err)
	}
	if _, err := dep.tb.FaultInjector().Schedule(fault.Fault{
		At: dep.tb.Eng.Now(), Kind: fault.NodeCrash, Node: 2}); err != nil {
		return nil, err
	}
	trOpts := core.TrOptions{Dst: 4, Length: 32, RouterPort: routing.GeographicPort}
	partial, _ := dep.ws.Traceroute(1, trOpts)
	r.check("degradation: faulted traceroute returns partial hop reports",
		partial != nil && len(partial.Reports) > 0 && partial.Verdict == brokenAt(1, 2),
		"%d report(s), failed hop %d, verdict %q",
		len(partial.Reports), partial.Verdict.Hop, partial.Verdict)
	// Drive a little traffic so the estimator condemns the dead link.
	if r1, ok := dep.tb.Router(routing.GeographicPort, 1); ok {
		for i := 0; i < 6; i++ {
			_ = r1.SendTo(4, recAppPort, []byte("probe"), false, false)
			dep.tb.Run(200 * time.Millisecond)
		}
	}
	healed, healedErr := dep.ws.Traceroute(1, trOpts)
	r.check("degradation: post-repair traceroute reaches the destination",
		healedErr == nil && healed != nil && healed.Verdict.Kind == core.VerdictReached,
		"verdict %q", healed.Verdict)

	var lastErr error
	for i := 0; i < core.DefaultBreakerThreshold; i++ {
		_, lastErr = dep.ws.Ping(2, core.PingOptions{Dst: 4, Rounds: 1, Length: 32})
	}
	r.check("breaker: failures are typed ack timeouts",
		lastErr != nil && errors.Is(lastErr, core.ErrAckTimeout) && errors.Is(lastErr, core.ErrXferFailed),
		"last error: %v", lastErr)
	before := dep.tb.Eng.Now()
	_, openErr := dep.ws.Ping(2, core.PingOptions{Dst: 4, Rounds: 1, Length: 32})
	r.check("breaker: opens after repeated failures and fails fast",
		errors.Is(openErr, core.ErrBreakerOpen) && dep.tb.Eng.Now() == before,
		"error %v, %v of virtual time spent", openErr, time.Duration(dep.tb.Eng.Now()-before))
	r.check("breaker: state visible to the user",
		dep.ws.BreakerFor(2).State == core.BreakerOpen, "state %v", dep.ws.BreakerFor(2).State)

	r.note("time-to-reroute counts from fault injection to the first delivery over the alternate relay")
	r.note("the same estimator signal drives routing repair, diagnosis verdicts, and the shell's health view")
	return r, nil
}
