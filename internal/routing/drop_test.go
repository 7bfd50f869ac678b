package routing_test

import (
	"testing"
	"time"

	"liteview/internal/mac"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// TestEveryDropIsRecorded drives the drop paths that used to bump a
// Stats counter without a "drop" event, or under the wrong cause —
// parked packets abandoned when route discovery fails or expired while
// it is pending, forwards the MAC refuses because its queue is full,
// and hand-offs to a radio that is off — and checks that the "drop"
// events, counted by cause, equal the routers' drop counters.
func TestEveryDropIsRecorded(t *testing.T) {
	opt := testbed.DefaultOptions(63)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(3, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOnDemand(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	for _, n := range tb.Nodes {
		for _, r := range tb.Routers(n.ID()) {
			r.ResetStats()
		}
	}
	rec := tb.Telemetry()
	var recorded []telemetry.Event
	rec.AddSink(func(e *telemetry.Event) { recorded = append(recorded, *e) })
	rec.Start()

	// Discovery failure: node 99 does not exist, so the four packets
	// parked for it are dropped as unroutable once every retry of the
	// route request has gone unanswered (well inside ParkTTL).
	od, _ := tb.Router(routing.OnDemandPort, 1)
	for i := 0; i < 4; i++ {
		if err := od.SendTo(99, 100, []byte("lost"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	tb.Run((routing.MaxDiscoveryRetries + 2) * routing.DiscoveryTimeout)
	if st := od.Stats(); st.DroppedNoRoute != 4 || st.ParkDrops != 0 {
		t.Fatalf("discovery failure: DroppedNoRoute=%d ParkDrops=%d, want 4 and 0", st.DroppedNoRoute, st.ParkDrops)
	}

	// Full MAC queue: node 1's MAC is kept at capacity by refilling it
	// from each frame's completion callback, so the geographic router's
	// hand-off to the MAC fails.
	m := tb.Node(0).MAC()
	filling := true
	var refill mac.SentFunc
	refill = func(mac.Frame, error) {
		if filling {
			_ = m.Send(mac.Frame{Type: mac.TypeData, Dst: phys.Broadcast, Payload: make([]byte, 40)}, refill)
		}
	}
	for m.QueueLen() < mac.QueueCap {
		refill(mac.Frame{}, nil)
	}
	geo, _ := tb.Router(routing.GeographicPort, 1)
	for i := 0; i < 3; i++ {
		if err := geo.SendTo(2, 100, []byte("refused"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	tb.Run(time.Second)
	filling = false
	tb.Run(time.Second)
	if st := geo.Stats(); st.DroppedQueue != 3 {
		t.Fatalf("full MAC queue: DroppedQueue=%d, want 3", st.DroppedQueue)
	}

	// Radio off: node 1's radio goes down between the router queueing
	// two packets and handing them to the MAC. That is not congestion.
	n1 := tb.Node(0)
	for i := 0; i < 2; i++ {
		if err := geo.SendTo(2, 100, []byte("unheard"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	n1.Radio().SetState(radio.Off)
	tb.Run(time.Second)
	n1.Radio().SetState(radio.RX)
	if st := geo.Stats(); st.DroppedRadioOff != 2 || st.DroppedQueue != 3 {
		t.Fatalf("radio off: DroppedRadioOff=%d DroppedQueue=%d, want 2 and 3", st.DroppedRadioOff, st.DroppedQueue)
	}

	// Park expiry: a second on-demand instance on node 1 whose ParkTTL
	// runs out long before its discovery for node 99 gives up.
	cfg := routing.DefaultConfig()
	cfg.ParkTTL = 50 * time.Millisecond
	short, err := routing.NewOnDemandOnPort(n1.Engine(), n1.Stack(), n1.SysNeighborTable(), 60, cfg)
	if err != nil {
		t.Fatal(err)
	}
	short.SetTelemetry(rec)
	for i := 0; i < 2; i++ {
		if err := short.SendTo(99, 100, []byte("parked"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	tb.Run(time.Second)
	if st := short.Stats(); st.ParkDrops != 2 || st.DroppedNoRoute != 0 {
		t.Fatalf("park expiry: ParkDrops=%d DroppedNoRoute=%d, want 2 and 0", st.ParkDrops, st.DroppedNoRoute)
	}
	rec.Stop()

	events := map[string]uint64{}
	for _, ev := range recorded {
		if ev.Kind == "drop" {
			cause, _ := ev.Attr("cause")
			events[cause]++
		}
	}
	var counted routing.Stats
	add := func(r *routing.Router) {
		st := r.Stats()
		counted.DroppedNoRoute += st.DroppedNoRoute
		counted.DroppedTTL += st.DroppedTTL
		counted.DroppedDup += st.DroppedDup
		counted.DroppedQueue += st.DroppedQueue
		counted.DroppedRadioOff += st.DroppedRadioOff
		counted.ParkDrops += st.ParkDrops
	}
	for _, n := range tb.Nodes {
		for _, r := range tb.Routers(n.ID()) {
			add(r)
		}
	}
	add(short)
	want := map[string]uint64{
		"noroute":   counted.DroppedNoRoute,
		"ttl":       counted.DroppedTTL,
		"dup":       counted.DroppedDup,
		"queue":     counted.DroppedQueue,
		"radio-off": counted.DroppedRadioOff,
		"park":      counted.ParkDrops,
	}
	for cause, n := range want {
		if events[cause] != n {
			t.Errorf("cause %q: %d drop events, %d counted", cause, events[cause], n)
		}
	}
	if len(events) > len(want) {
		t.Errorf("drop events with unknown causes: %v", events)
	}
}
