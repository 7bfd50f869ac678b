package routing_test

import (
	"testing"
	"time"

	"liteview/internal/fault"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// TestParkQueueBoundedAndExpires covers the pending-packet fix: the park
// queue must reject overflow instead of growing, and parked packets that
// discovery never claims must expire with a "drop" event of cause park
// instead of leaking until reboot.
func TestParkQueueBoundedAndExpires(t *testing.T) {
	opt := testbed.DefaultOptions(61)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(3, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	cfg := routing.DefaultConfig()
	// Expire parked packets long before discovery would give up on its
	// own, so the expiry path (not discovery failure) drops them.
	cfg.ParkTTL = sim.Time(50 * time.Millisecond)
	if err := tb.AttachOnDemand(cfg); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	rec := tb.Telemetry()
	var events []telemetry.Event
	rec.AddSink(func(e *telemetry.Event) { events = append(events, *e) })
	rec.Start()
	r, _ := tb.Router(routing.OnDemandPort, 1)
	// Node 99 does not exist: every send parks awaiting discovery. The
	// queue holds 4 per destination; the rest must be refused on entry.
	for i := 0; i < 6; i++ {
		if err := r.SendTo(99, 100, []byte("leak?"), false, false); err != nil {
			t.Fatal(err)
		}
	}
	st := r.Stats()
	if st.DroppedQueue < 2 {
		t.Fatalf("park queue accepted overflow: %+v", st)
	}
	tb.Run(2 * time.Second)
	st = r.Stats()
	if st.ParkDrops == 0 {
		t.Fatalf("parked packets never expired: %+v", st)
	}
	drops := 0
	for _, ev := range events {
		if cause, _ := ev.Attr("cause"); ev.Kind == "drop" && cause == "park" {
			drops++
		}
	}
	if drops != int(st.ParkDrops) {
		t.Fatalf("park drop events = %d, ParkDrops = %d", drops, st.ParkDrops)
	}
	rec.Stop()
}

// TestGeographicLinkRepair crashes the primary relay of a diamond and
// checks the repair loop end to end at the routing layer: the failure
// streak condemns the link, queued traffic is salvaged through the
// alternate relay, and delivery resumes.
func TestGeographicLinkRepair(t *testing.T) {
	opt := testbed.DefaultOptions(62)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Custom([]phys.Position{
		{X: 0, Y: 0}, {X: 22, Y: -8}, {X: 22, Y: 8}, {X: 44, Y: 0},
	}, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	rec := tb.Telemetry()
	var events []telemetry.Event
	rec.AddSink(func(e *telemetry.Event) { events = append(events, *e) })
	rec.Start()
	var got []*stack.Packet
	subscribe(t, tb, 3, 100, &got)
	r1, _ := tb.Router(routing.GeographicPort, 1)
	if _, err := tb.FaultInjector().Schedule(fault.Fault{
		At: tb.Eng.Now(), Kind: fault.NodeCrash, Node: 2}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := r1.SendTo(4, 100, []byte("reroute"), false, false); err != nil {
			t.Fatal(err)
		}
		tb.Run(300 * time.Millisecond)
	}
	st := r1.Stats()
	if st.LinkRepairs == 0 {
		t.Fatalf("dead link never condemned: %+v", st)
	}
	if len(got) == 0 {
		t.Fatal("no delivery after repair")
	}
	r3, _ := tb.Router(routing.GeographicPort, 3)
	if r3.Stats().Forwarded == 0 {
		t.Fatal("alternate relay carried nothing")
	}
	suspects, repairs := 0, 0
	for _, ev := range events {
		switch ev.Kind {
		case "link-suspect":
			suspects++
		case "route-repair":
			repairs++
		}
	}
	if suspects == 0 || repairs == 0 {
		t.Fatalf("repair left no telemetry: %d link-suspect, %d route-repair", suspects, repairs)
	}
	rec.Stop()
	// ResetStats must clear the repair counters with the rest.
	r1.ResetStats()
	if st := r1.Stats(); st.LinkRepairs != 0 || st.Salvaged != 0 || st.ParkDrops != 0 {
		t.Fatalf("ResetStats left repair counters: %+v", st)
	}
}
