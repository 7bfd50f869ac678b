package app_test

import (
	"testing"
	"time"

	"liteview/internal/app"
	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

func collectionBed(t *testing.T, n int, spacing float64, seed uint64) (*testbed.Testbed, *app.Sink, []*app.Sampler) {
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
	tb.WarmUp(15 * time.Second)
	sink, samplers, err := app.DeployCollection(tb.Nodes, func(id phys.NodeID) *routing.Router {
		r, _ := tb.Router(routing.GeographicPort, id)
		return r
	}, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return tb, sink, samplers
}

func TestCollectionDelivers(t *testing.T) {
	tb, sink, samplers := collectionBed(t, 4, 20, 1)
	tb.Run(30 * time.Second)
	st := sink.Stats()
	if st.Received < 50 {
		t.Fatalf("sink absorbed only %d readings", st.Received)
	}
	// Every sampler contributed.
	for id := phys.NodeID(2); id <= 4; id++ {
		if st.PerOrigin[id] == 0 {
			t.Fatalf("no readings from node %d: %v", id, st.PerOrigin)
		}
	}
	// Multi-hop latency is positive and sane.
	if st.MeanLatency() <= 0 || st.MeanLatency() > 500*time.Millisecond {
		t.Fatalf("mean latency = %v", st.MeanLatency())
	}
	for _, s := range samplers {
		if s.Stats().Generated == 0 {
			t.Fatal("idle sampler")
		}
	}
}

func TestSamplerLifecycle(t *testing.T) {
	tb, _, samplers := collectionBed(t, 3, 15, 2)
	s := samplers[0]
	if !s.Running() {
		t.Fatal("not running after deploy")
	}
	if err := s.Start(); err == nil {
		t.Fatal("double start accepted")
	}
	tb.Run(5 * time.Second)
	if err := s.Stop(); err != nil {
		t.Fatal(err)
	}
	gen := s.Stats().Generated
	tb.Run(10 * time.Second)
	if s.Stats().Generated != gen {
		t.Fatal("sampler kept sampling after Stop")
	}
	if err := s.Stop(); err == nil {
		t.Fatal("double stop accepted")
	}
	// Restart works.
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	if s.Stats().Generated == gen {
		t.Fatal("no samples after restart")
	}
}

func TestOnReadingObserver(t *testing.T) {
	tb, sink, _ := collectionBed(t, 2, 10, 3)
	var seen []app.Reading
	sink.OnReading = func(r app.Reading) { seen = append(seen, r) }
	tb.Run(10 * time.Second)
	if len(seen) == 0 {
		t.Fatal("observer never fired")
	}
	if seen[0].Origin != 2 {
		t.Fatalf("reading origin = %d", seen[0].Origin)
	}
	if seen[0].Value > 1023 {
		t.Fatalf("ADC value out of range: %d", seen[0].Value)
	}
}

// TestApplicationIndependence is the paper's headline property made
// executable: the application keeps collecting while LiteView commands
// run, and LiteView works without knowing the application exists.
func TestApplicationIndependence(t *testing.T) {
	opt := testbed.DefaultOptions(4)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(4, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// The app deploys FIRST; LiteView arrives later, as in a real
	// deployment being debugged.
	tb.WarmUp(10 * time.Second)
	sink, _, err := app.DeployCollection(tb.Nodes, func(id phys.NodeID) *routing.Router {
		r, _ := tb.Router(routing.GeographicPort, id)
		return r
	}, 1, 800*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.Run(10 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		t.Fatal(err)
	}
	before := sink.Stats().Received
	// A full management session right on top of the running app.
	if _, err := ws.Ping(1, core.PingOptions{Dst: 4, Rounds: 2, Length: 16, RouterPort: routing.GeographicPort}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.Traceroute(1, core.TrOptions{Dst: 4, Length: 32, RouterPort: routing.GeographicPort}); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.NeighborList(2); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	after := sink.Stats().Received
	if after <= before {
		t.Fatalf("application stalled during management: %d → %d readings", before, after)
	}
}

func TestCollectionOverTreeProtocol(t *testing.T) {
	// Protocol independence cuts both ways: the app also runs over the
	// collection tree.
	opt := testbed.DefaultOptions(5)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(4, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachTree(1, routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(60 * time.Second) // let the gradient converge
	sink, _, err := app.DeployCollection(tb.Nodes, func(id phys.NodeID) *routing.Router {
		r, _ := tb.Router(routing.TreePort, id)
		return r
	}, 1, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(30 * time.Second)
	if sink.Stats().Received < 30 {
		t.Fatalf("tree collection absorbed only %d", sink.Stats().Received)
	}
}

func TestSinkClose(t *testing.T) {
	tb, sink, _ := collectionBed(t, 2, 10, 6)
	tb.Run(5 * time.Second)
	if err := sink.Close(); err != nil {
		t.Fatal(err)
	}
	got := sink.Stats().Received
	tb.Run(10 * time.Second)
	if sink.Stats().Received != got {
		t.Fatal("closed sink kept absorbing")
	}
	if err := sink.Close(); err != nil {
		t.Fatal("second close should be a no-op error-free exit")
	}
}

func TestDeployValidation(t *testing.T) {
	opt := testbed.DefaultOptions(7)
	tb, err := testbed.Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := app.DeployCollection(tb.Nodes, func(phys.NodeID) *routing.Router { return nil }, 1, time.Second); err == nil {
		t.Fatal("nil routers accepted")
	}
	tb2, _ := testbed.Line(2, 10, testbed.DefaultOptions(8))
	tb2.AttachGeographic(routing.DefaultConfig())
	if _, _, err := app.DeployCollection(tb2.Nodes, func(id phys.NodeID) *routing.Router {
		r, _ := tb2.Router(routing.GeographicPort, id)
		return r
	}, 99, time.Second); err == nil {
		t.Fatal("phantom sink accepted")
	}
}

func TestCollectionUnderLPL(t *testing.T) {
	// The application also survives a duty-cycled deployment: samples
	// just ride LPL's repeat-until-ack unicast per hop.
	opt := testbed.DefaultOptions(9)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	opt.LPL = true
	opt.BeaconPeriod = 10 * time.Second
	tb, err := testbed.Line(3, 15, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(60 * time.Second)
	sink, _, err := app.DeployCollection(tb.Nodes, func(id phys.NodeID) *routing.Router {
		r, _ := tb.Router(routing.GeographicPort, id)
		return r
	}, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	tb.Run(60 * time.Second)
	st := sink.Stats()
	if st.Received < 20 {
		t.Fatalf("LPL collection absorbed only %d", st.Received)
	}
	// Latency includes per-hop wake-ups: noticeably above always-on.
	if st.MeanLatency() < 5*time.Millisecond {
		t.Fatalf("LPL latency suspiciously low: %v", st.MeanLatency())
	}
}
