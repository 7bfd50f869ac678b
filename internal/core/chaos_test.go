package core_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/fault"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// The chaos suite drives every management command through every fault
// class and asserts the robustness contract: commands terminate inside
// their response windows, failures come back as explicit verdicts
// rather than hangs or silence, recovery works after the fault window,
// no timers leak, and the same seed replays the same outcome.

// drainIdle stops every recurring event source and runs the engine dry;
// anything still pending afterwards is a leaked timer.
func drainIdle(t *testing.T, tb *testbed.Testbed) {
	t.Helper()
	for _, n := range tb.Nodes {
		n.Neighbors().Stop()
	}
	tb.Run(60 * time.Second)
	if p := tb.Eng.Pending(); p != 0 {
		t.Fatalf("%d leaked timer(s) after drain", p)
	}
}

// runBoundedPing runs a ping and fails the test if it overruns a
// generous-but-finite bound or comes back without a verdict.
func runBoundedPing(t *testing.T, tb *testbed.Testbed, ws *core.Workstation, node phys.NodeID, opts core.PingOptions) (*core.PingOutput, error) {
	t.Helper()
	start := tb.Eng.Now()
	out, err := ws.Ping(node, opts)
	elapsed := tb.Eng.Now() - start
	limit := 2*time.Second + time.Duration(opts.Rounds)*500*time.Millisecond
	if elapsed > limit {
		t.Fatalf("ping ran %v, over the %v bound", elapsed, limit)
	}
	if out == nil {
		t.Fatal("ping returned nil output")
	}
	if out.Verdict.Kind == core.VerdictNone {
		t.Fatal("ping returned no verdict")
	}
	return out, err
}

func runBoundedTraceroute(t *testing.T, tb *testbed.Testbed, ws *core.Workstation, node phys.NodeID, opts core.TrOptions) (*core.TracerouteOutput, error) {
	t.Helper()
	start := tb.Eng.Now()
	out, err := ws.Traceroute(node, opts)
	elapsed := tb.Eng.Now() - start
	if limit := 12 * time.Second; elapsed > limit {
		t.Fatalf("traceroute ran %v, over the %v bound", elapsed, limit)
	}
	if out == nil {
		t.Fatal("traceroute returned nil output")
	}
	if out.Verdict.Kind == core.VerdictNone {
		t.Fatal("traceroute returned no verdict")
	}
	return out, err
}

func TestChaosNodeCrash(t *testing.T) {
	tb, ws := deploy(t, 5, 20, 11)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.NodeCrash, Node: 3}); err != nil {
		t.Fatal(err)
	}
	// Multihop ping to the crashed node: explicit failure.
	out, err := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 3, Rounds: 2, Length: 32,
		RouterPort: routing.GeographicPort})
	if err == nil && out.Lost == 0 {
		t.Fatalf("ping to crashed node succeeded: %q", out.Verdict)
	}
	// Traceroute across the crash names the failing hop.
	tr, _ := runBoundedTraceroute(t, tb, ws, 1, core.TrOptions{Dst: 5, Length: 32,
		RouterPort: routing.GeographicPort})
	if k := tr.Verdict.Kind; k != core.VerdictNoAnswer && k != core.VerdictRouteLost {
		t.Fatalf("traceroute did not report the broken hop: %q", tr.Verdict)
	}
	// Commands to live nodes still work.
	if _, err := ws.NeighborList(1); err != nil {
		t.Fatalf("neighbor list on live node: %v", err)
	}
	if err := ws.SetPower(2, 25); err != nil {
		t.Fatalf("power set on live node: %v", err)
	}
	// Management commands to the crashed node fail but terminate.
	if _, err := ws.NeighborList(3); err == nil {
		t.Fatal("neighbor list on crashed node succeeded")
	}
	if err := ws.SetPower(3, 25); err == nil {
		t.Fatal("power set on crashed node succeeded")
	}
	drainIdle(t, tb)
}

func TestChaosCrashRebootRecovery(t *testing.T) {
	tb, ws := deploy(t, 3, 18, 12)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.NodeCrash, Node: 2,
		Duration: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second) // past the crash window and re-registration
	if !tb.Node(1).Alive() {
		t.Fatal("node did not reboot")
	}
	out, err := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
	if err != nil || out.Lost != 0 {
		t.Fatalf("ping after reboot: err=%v verdict=%q", err, out.Verdict)
	}
	// The rebooted node answers its own management commands again.
	if _, err := ws.NeighborList(2); err != nil {
		t.Fatalf("neighbor list after reboot: %v", err)
	}
	if err := ws.SetChannel(2, 17); err != nil {
		t.Fatalf("channel set after reboot: %v", err)
	}
	// The reboot shows in the stats: uptime restarted at the reboot,
	// far below the deployment's age (warm-up plus the run above).
	st, err := ws.Stats(2)
	if err != nil {
		t.Fatal(err)
	}
	if age := uint32(tb.Eng.Now() / time.Millisecond); st.Node.UptimeMs >= age {
		t.Fatalf("uptime %d ms did not reset (deployment age %d ms)", st.Node.UptimeMs, age)
	}
	drainIdle(t, tb)
}

func TestChaosLinkBlackoutAndResume(t *testing.T) {
	tb, ws := deploy(t, 3, 18, 13)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.LinkBlackout, A: 1, B: 2,
		Duration: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	out, err := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32})
	if err == nil && out.Lost == 0 {
		t.Fatalf("ping across blacked-out link succeeded: %q", out.Verdict)
	}
	tb.Run(4 * time.Second) // let the blackout lapse
	out, err = runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
	if err != nil || out.Lost != 0 {
		t.Fatalf("ping after blackout lapsed: err=%v verdict=%q", err, out.Verdict)
	}
	drainIdle(t, tb)
}

func TestChaosCorruptBurst(t *testing.T) {
	tb, ws := deploy(t, 3, 18, 14)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.CorruptBurst, Node: 2,
		Prob: 0.9}); err != nil {
		t.Fatal(err)
	}
	// Several rounds: with 90% burst corruption at the receiver some
	// rounds may still squeak through on MAC retries, but the command
	// must terminate and the corruption must show up in the counters.
	out, _ := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 3, Length: 32})
	if out.Sent != 3 {
		t.Fatalf("accounted rounds = %d", out.Sent)
	}
	if st := tb.Node(1).MAC().Stats(); st.CRCFailures == 0 {
		t.Fatal("burst corruption left no CRC-failure evidence")
	}
	drainIdle(t, tb)
}

func TestChaosJamEveryCommandTerminates(t *testing.T) {
	tb, ws := deploy(t, 3, 18, 15)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.Jam}); err != nil {
		t.Fatal(err)
	}
	if out, err := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32}); err == nil {
		t.Fatalf("ping under jamming succeeded: %q", out.Verdict)
	}
	if tr, err := runBoundedTraceroute(t, tb, ws, 1, core.TrOptions{Dst: 3, Length: 32,
		RouterPort: routing.GeographicPort}); err == nil {
		t.Fatalf("traceroute under jamming succeeded: %q", tr.Verdict)
	}
	if _, err := ws.NeighborList(1); err == nil {
		t.Fatal("neighbor list under jamming succeeded")
	}
	if err := ws.SetPower(1, 25); err == nil {
		t.Fatal("power set under jamming succeeded")
	}
	drainIdle(t, tb)
}

func TestChaosPartition(t *testing.T) {
	tb, ws := deploy(t, 5, 20, 16)
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.Partition,
		Group: []phys.NodeID{4, 5}}); err != nil {
		t.Fatal(err)
	}
	tr, _ := runBoundedTraceroute(t, tb, ws, 1, core.TrOptions{Dst: 5, Length: 32,
		RouterPort: routing.GeographicPort})
	if k := tr.Verdict.Kind; k != core.VerdictNoAnswer && k != core.VerdictRouteLost {
		t.Fatalf("traceroute across the partition did not break: %q", tr.Verdict)
	}
	// Inside the main segment everything still works.
	out, err := runBoundedPing(t, tb, ws, 1, core.PingOptions{Dst: 2, Rounds: 1, Length: 32})
	if err != nil || out.Lost != 0 {
		t.Fatalf("ping inside main segment: err=%v verdict=%q", err, out.Verdict)
	}
	drainIdle(t, tb)
}

// TestChaosSameSeedSameOutcome replays an identical (topology, seed,
// fault schedule) run and requires identical command outcomes.
func TestChaosSameSeedSameOutcome(t *testing.T) {
	run := func() string {
		tb, ws := deploy(t, 5, 20, 17)
		inj := tb.FaultInjector()
		if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.CorruptBurst, Node: 2,
			Prob: 0.7, Duration: 5 * time.Second}); err != nil {
			t.Fatal(err)
		}
		if _, err := inj.Schedule(fault.Fault{At: inj.Now() + 2*time.Second, Kind: fault.NodeCrash,
			Node: 4, Duration: 2 * time.Second}); err != nil {
			t.Fatal(err)
		}
		var log string
		p, perr := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 3, Length: 32})
		log += fmt.Sprintf("ping err=%v verdict=%q delay=%v lost=%d\n", perr, p.Verdict, p.ResponseDelay, p.Lost)
		tr, terr := ws.Traceroute(1, core.TrOptions{Dst: 5, Length: 32, RouterPort: routing.GeographicPort})
		log += fmt.Sprintf("tr err=%v verdict=%q node=%d hop=%d delay=%v\n", terr, tr.Verdict, tr.Verdict.Node, tr.Verdict.Hop, tr.ResponseDelay)
		for _, rep := range tr.Reports {
			log += fmt.Sprintf("hop %d from %d lost=%v rtt=%d at=%v\n", rep.Hop, rep.From, rep.Lost, rep.RTT, rep.At)
		}
		return log
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different outcomes:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
}

// TestRefusedCommandVerdict checks that a command the workstation never
// sent, because the node's circuit breaker is open, says so instead of
// reporting a failed delivery, in its output and in its span.
func TestRefusedCommandVerdict(t *testing.T) {
	tb, ws := deploy(t, 3, 18, 18)
	tb.Node(1).Crash()
	opts := core.PingOptions{Dst: 3, Rounds: 1, Length: 32}
	for i := 0; i < core.DefaultBreakerThreshold; i++ {
		out, _ := ws.Ping(2, opts)
		if want := (core.Verdict{Kind: core.VerdictNotDelivered, Node: 2}); out.Verdict != want {
			t.Fatalf("ping %d to the crashed node: %q, want %q", i+1, out.Verdict, want)
		}
	}
	rec := tb.Telemetry()
	rec.Start()
	before := tb.Eng.Now()
	out, err := ws.Ping(2, opts)
	if !errors.Is(err, core.ErrBreakerOpen) || tb.Eng.Now() != before {
		t.Fatalf("breaker did not refuse the command: err=%v", err)
	}
	const want = "command to node 2 not sent (circuit breaker open, or another command in flight)"
	if out.Verdict.Kind != core.VerdictRefused || out.Verdict.String() != want {
		t.Fatalf("verdict %q, want %q", out.Verdict, want)
	}
	if spans := rec.SpanSummary(); !strings.Contains(spans, "verdict="+want) {
		t.Fatalf("span does not record the refusal:\n%s", spans)
	}
}
