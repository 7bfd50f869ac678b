package diagnose_test

import (
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/diagnose"
	"liteview/internal/fault"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

func deployDiag(t *testing.T, n int, spacing float64, seed uint64, asym float64) (*testbed.Testbed, *core.Workstation, []diagnose.Target) {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = asym
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
	tb.WarmUp(20 * time.Second)
	ws, err := tb.NewWorkstation(tb.Node(0).Position())
	if err != nil {
		t.Fatal(err)
	}
	var targets []diagnose.Target
	for _, node := range tb.Nodes {
		targets = append(targets, diagnose.Target{ID: node.ID(), Name: node.Name(), Pos: node.Position()})
	}
	return tb, ws, targets
}

func TestHealthyDeploymentIsClean(t *testing.T) {
	_, ws, targets := deployDiag(t, 4, 20, 1, 0)
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Nodes) != 4 {
		t.Fatalf("visited %d nodes", len(rep.Nodes))
	}
	for _, n := range rep.Nodes {
		if !n.Reachable {
			t.Fatalf("healthy node %s unreachable", n.Target.Name)
		}
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("healthy deployment produced findings: %v", rep.Findings)
	}
	if rep.Critical() {
		t.Fatal("critical on a healthy deployment")
	}
	if !strings.Contains(rep.String(), "no problems found") {
		t.Fatalf("report:\n%s", rep.String())
	}
}

func TestDeadNodeFlaggedUnreachable(t *testing.T) {
	tb, ws, targets := deployDiag(t, 3, 20, 2, 0)
	tb.Node(2).Radio().SetState(radio.Off)
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Critical() {
		t.Fatal("dead node not critical")
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "unreachable" && f.Node == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("findings: %v", rep.Findings)
	}
	if !strings.Contains(rep.String(), "UNREACHABLE") {
		t.Fatalf("report:\n%s", rep.String())
	}
}

func TestAsymmetricLinksFlagged(t *testing.T) {
	// A brutally asymmetric radio map: both ends of some link should
	// disagree enough to trip the detector.
	_, ws, targets := deployDiag(t, 5, 16, 3, 6.0)
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	found := 0
	for _, f := range rep.Findings {
		if f.Kind == "asymmetric-link" {
			found++
			if f.Peer == 0 || f.Node == f.Peer {
				t.Fatalf("malformed link finding: %+v", f)
			}
		}
	}
	if found == 0 {
		t.Fatalf("no asymmetric links at σ=6 dB: %v", rep.Findings)
	}
}

func TestLossHotspotFlagged(t *testing.T) {
	tb, ws, targets := deployDiag(t, 3, 20, 4, 0)
	// Generate loss: node 1 pings a phantom destination repeatedly —
	// every probe dies unacked.
	for i := 0; i < 4; i++ {
		if _, err := ws.Ping(1, core.PingOptions{Dst: 99, Rounds: 3, Length: 16}); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "loss-hotspot" && f.Node == 1 {
			found = true
		}
	}
	if !found {
		t.Fatalf("loss hotspot not flagged: %v", rep.Findings)
	}
	_ = tb
}

func TestHealthCheckValidation(t *testing.T) {
	_, ws, targets := deployDiag(t, 2, 10, 6, 0)
	if _, err := diagnose.HealthCheck(nil, targets); err == nil {
		t.Fatal("nil workstation accepted")
	}
	if _, err := diagnose.HealthCheck(ws, nil); err == nil {
		t.Fatal("no targets accepted")
	}
}

func TestSeverityOrdering(t *testing.T) {
	tb, ws, targets := deployDiag(t, 3, 20, 7, 0)
	tb.Node(2).Radio().SetState(radio.Off) // critical
	// Also force a warning (loss hotspot at node 1).
	for i := 0; i < 4; i++ {
		ws.Ping(1, core.PingOptions{Dst: 99, Rounds: 3, Length: 16})
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) < 2 {
		t.Fatalf("findings: %v", rep.Findings)
	}
	if rep.Findings[0].Severity != diagnose.Critical {
		t.Fatalf("critical not first: %v", rep.Findings)
	}
}

func TestRTTSurveyRanksCongestion(t *testing.T) {
	_, ws, targets := deployDiag(t, 4, 18, 8, 0)
	pairs := []diagnose.Pair{
		{From: targets[0], To: 2},
		{From: targets[1], To: 3},
		{From: targets[2], To: 4},
	}
	out, err := diagnose.RTTSurvey(ws, pairs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 {
		t.Fatalf("results = %d", len(out))
	}
	for _, r := range out {
		if r.Received == 0 {
			t.Fatalf("pair %s→%d received nothing", r.Pair.From.Name, r.Pair.To)
		}
		if r.MeanRTTMs <= 0 || r.MeanRTTMs > 100 {
			t.Fatalf("RTT = %f ms", r.MeanRTTMs)
		}
	}
	// Sorted slowest-first.
	for i := 1; i < len(out); i++ {
		if out[i-1].Lost == out[i].Lost && out[i-1].MeanRTTMs < out[i].MeanRTTMs {
			t.Fatalf("not sorted: %+v", out)
		}
	}
	if _, err := diagnose.RTTSurvey(nil, pairs, 1); err == nil {
		t.Fatal("nil workstation accepted")
	}
	if _, err := diagnose.RTTSurvey(ws, nil, 1); err == nil {
		t.Fatal("empty pairs accepted")
	}
}

func TestCrashedNodeFlagged(t *testing.T) {
	// A crashed node differs from a missing one: live peers still carry
	// it in their neighbor tables, and the health check says so.
	tb, ws, targets := deployDiag(t, 3, 20, 9, 0)
	tb.Node(2).Crash()
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	var unreachable, crashed bool
	for _, f := range rep.Findings {
		if f.Kind == "unreachable" && f.Node == 3 {
			unreachable = true
		}
		if f.Kind == "crashed-node" && f.Node == 3 {
			crashed = true
		}
	}
	if !unreachable || !crashed {
		t.Fatalf("unreachable=%v crashed=%v: %v", unreachable, crashed, rep.Findings)
	}
}

func TestPartitionedSegmentFlagged(t *testing.T) {
	// A blackout on the 2-3 link from before discovery: at 30 m spacing
	// only adjacent nodes hear each other, so the deployment converges
	// as two segments — while every node still answers one-hop
	// management commands.
	opt := testbed.DefaultOptions(10)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(5, 30, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.LinkBlackout, A: 2, B: 3}); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(20 * time.Second)
	ws, err := tb.NewWorkstation(tb.Node(0).Position())
	if err != nil {
		t.Fatal(err)
	}
	var targets []diagnose.Target
	for _, node := range tb.Nodes {
		targets = append(targets, diagnose.Target{ID: node.ID(), Name: node.Name(), Pos: node.Position()})
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "partitioned-segment" {
			found = true
			if f.Severity != diagnose.Critical {
				t.Fatalf("partition not critical: %+v", f)
			}
		}
	}
	if !found {
		t.Fatalf("partition not flagged: %v", rep.Findings)
	}
}

func TestBurstyLinkFlagged(t *testing.T) {
	// Burst corruption during discovery: the surviving beacons carry a
	// healthy LQI while the delivery ratio collapses. The burst window
	// closes before the walk so the node still answers management.
	opt := testbed.DefaultOptions(11)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now(), Kind: fault.CorruptBurst, Node: 2,
		Prob: 0.8, Duration: 19 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(20 * time.Second)
	ws, err := tb.NewWorkstation(tb.Node(0).Position())
	if err != nil {
		t.Fatal(err)
	}
	var targets []diagnose.Target
	for _, node := range tb.Nodes {
		targets = append(targets, diagnose.Target{ID: node.ID(), Name: node.Name(), Pos: node.Position()})
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "bursty-link" {
			found = true
		}
	}
	if !found {
		t.Fatalf("bursty link not flagged: %v", rep.Findings)
	}
}

func TestDiagnosePathNamesFailingHop(t *testing.T) {
	tb, ws, targets := deployDiag(t, 5, 20, 12, 0)
	// Healthy path first.
	rep, err := diagnose.DiagnosePath(ws, targets[0], core.TrOptions{Dst: 5, Length: 32,
		RouterPort: routing.GeographicPort})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Findings) != 0 {
		t.Fatalf("healthy path produced findings: %v", rep.Findings)
	}
	if !strings.Contains(rep.String(), "path healthy") {
		t.Fatalf("report:\n%s", rep.String())
	}
	// Crash the relay and diagnose again: the report names it.
	tb.Node(2).Crash()
	rep, err = diagnose.DiagnosePath(ws, targets[0], core.TrOptions{Dst: 5, Length: 32,
		RouterPort: routing.GeographicPort})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, f := range rep.Findings {
		if f.Kind == "path-broken" && f.Node == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("failing hop not named: %v (verdict %q)", rep.Findings, rep.Traceroute.Verdict)
	}
}
