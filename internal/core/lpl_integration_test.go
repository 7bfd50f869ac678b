package core_test

import (
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// deployLPL builds a duty-cycled line deployment with LiteView.
func deployLPL(t *testing.T, n int, spacing float64, seed uint64) (*testbed.Testbed, *core.Workstation) {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	opt.LPL = true
	opt.BeaconPeriod = 10 * time.Second // broadcasts are expensive under LPL
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
	tb.WarmUp(60 * time.Second) // discovery is slower at a 10 s beacon period
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		t.Fatal(err)
	}
	return tb, ws
}

// TestPingOverLPLDeployment: the management tools must keep working on
// a duty-cycled network — each one-hop exchange just pays up to one
// sleep interval of wake-up latency.
func TestPingOverLPLDeployment(t *testing.T) {
	_, ws := deployLPL(t, 2, 5, 81)
	out, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if out.Received < 1 {
		t.Fatalf("LPL ping: %+v", out)
	}
	// RTTs include the wake-up latency: well above the always-on
	// ~5-10 ms, bounded by ~2 sleep intervals.
	for _, r := range out.Results {
		if r.Lost {
			continue
		}
		rtt := time.Duration(r.RTT) * time.Microsecond
		if rtt > 500*time.Millisecond {
			t.Fatalf("LPL RTT = %v, absurd", rtt)
		}
	}
}

func TestLPLDeploymentSavesEnergy(t *testing.T) {
	measure := func(lpl bool) float64 {
		opt := testbed.DefaultOptions(82)
		opt.ShadowSigma = 0
		opt.AsymSigma = 0
		opt.LPL = lpl
		opt.BeaconPeriod = 10 * time.Second
		tb, err := testbed.Line(3, 15, opt)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tb.InstallLiteView(); err != nil {
			t.Fatal(err)
		}
		tb.WarmUp(120 * time.Second)
		var total float64
		for _, n := range tb.Nodes {
			total += n.Energy().ConsumedJ()
		}
		return total
	}
	alwaysOn := measure(false)
	lpl := measure(true)
	if lpl >= alwaysOn/3 {
		t.Fatalf("LPL deployment used %.2f J vs %.2f J always-on", lpl, alwaysOn)
	}
}

func TestLPLLifetimeEstimateImproves(t *testing.T) {
	tb, ws := deployLPL(t, 2, 5, 83)
	es, err := ws.Energy(2)
	if err != nil {
		t.Fatal(err)
	}
	if !es.HasLifetime {
		t.Fatal("no lifetime estimate")
	}
	// Always-on CC2420 ≈ 5.5 days; duty-cycled should project weeks+.
	if es.EstimatedLifetimeHours < 24*14 {
		t.Fatalf("LPL lifetime = %d h, want ≥ 2 weeks", es.EstimatedLifetimeHours)
	}
	_ = tb
}

func TestNeighborDiscoveryWorksUnderLPL(t *testing.T) {
	tb, _ := deployLPL(t, 3, 15, 84)
	// LPL broadcasts repeat across sleep intervals, so beacons still
	// reach every duty-cycled neighbor.
	mid := tb.Node(1)
	if mid.SysNeighborTable().Len() < 2 {
		t.Fatalf("middle node knows %d neighbors under LPL", mid.SysNeighborTable().Len())
	}
}

func TestTracerouteOverLPL(t *testing.T) {
	_, ws := deployLPL(t, 3, 15, 85)
	out, err := ws.Traceroute(1, core.TrOptions{Dst: 3, Length: 32, RouterPort: routing.GeographicPort})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Reports) == 0 {
		t.Fatal("no reports over LPL")
	}
	last := out.Reports[len(out.Reports)-1]
	if !last.Final || last.From != 3 {
		t.Fatalf("LPL traceroute incomplete: %+v", last)
	}
}
