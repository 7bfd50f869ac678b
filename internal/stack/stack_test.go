package stack

import (
	"testing"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

type env struct {
	eng *sim.Engine
	med *medium.Medium
}

func newEnv(seed uint64) *env {
	eng := sim.NewEngine(seed)
	model := phys.DefaultModel(seed)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	return &env{eng: eng, med: medium.New(eng, model)}
}

func (e *env) node(t *testing.T, id phys.NodeID, x float64) *Stack {
	t.Helper()
	rad, err := radio.New(17)
	if err != nil {
		t.Fatal(err)
	}
	var st *Stack
	m, err := mac.New(e.eng, e.med, rad, id, phys.Position{X: x}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		t.Fatal(err)
	}
	st = New(e.eng, m)
	return st
}

func TestPortDispatch(t *testing.T) {
	e := newEnv(1)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	var got *Packet
	var gotFrom phys.NodeID
	if err := b.Subscribe(10, func(p *Packet, from phys.NodeID, _ medium.RxInfo) {
		got = p
		gotFrom = from
	}); err != nil {
		t.Fatal(err)
	}
	p := &Packet{Port: 10, Origin: 1, Dst: 2, TTL: 1, Data: []byte("hi")}
	if err := a.Send(p, 2, mac.TypeData, nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if got == nil {
		t.Fatal("packet not delivered")
	}
	if got.Port != 10 || string(got.Data) != "hi" || gotFrom != 1 {
		t.Fatalf("got %+v from %d", got, gotFrom)
	}
	if b.Stats().Delivered != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestNoSubscriberCounted(t *testing.T) {
	e := newEnv(2)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	a.Send(&Packet{Port: 99, Origin: 1, Dst: 2}, 2, mac.TypeData, nil)
	e.eng.Run()
	if b.Stats().NoSubscriber != 1 {
		t.Fatalf("stats = %+v", b.Stats())
	}
}

func TestDestinationFiltering(t *testing.T) {
	e := newEnv(3)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	c := e.node(t, 3, 10)
	heardAtC := false
	c.Subscribe(10, func(*Packet, phys.NodeID, medium.RxInfo) { heardAtC = true })
	b.Subscribe(10, func(*Packet, phys.NodeID, medium.RxInfo) {})
	// MAC frame addressed to node 2; node 3 overhears but must filter.
	a.Send(&Packet{Port: 10, Origin: 1, Dst: 2}, 2, mac.TypeData, nil)
	e.eng.Run()
	if heardAtC {
		t.Fatal("node 3 delivered a frame addressed to node 2")
	}
	if c.Stats().FilteredDst != 1 {
		t.Fatalf("c stats = %+v", c.Stats())
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	e := newEnv(4)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	c := e.node(t, 3, 8)
	n := 0
	h := func(*Packet, phys.NodeID, medium.RxInfo) { n++ }
	b.Subscribe(11, h)
	c.Subscribe(11, h)
	a.Send(&Packet{Port: 11, Origin: 1, Dst: phys.Broadcast}, phys.Broadcast, mac.TypeBeacon, nil)
	e.eng.Run()
	if n != 2 {
		t.Fatalf("broadcast reached %d nodes, want 2", n)
	}
}

func TestSubscribeConflicts(t *testing.T) {
	e := newEnv(5)
	a := e.node(t, 1, 0)
	h := func(*Packet, phys.NodeID, medium.RxInfo) {}
	if err := a.Subscribe(10, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
	if err := a.Subscribe(10, h); err != nil {
		t.Fatal(err)
	}
	if err := a.Subscribe(10, h); err == nil {
		t.Fatal("duplicate subscription accepted")
	}
	if a.handler(10) == nil || len(a.ports) != 1 {
		t.Fatal("subscription state wrong")
	}
	a.Unsubscribe(10)
	if a.handler(10) != nil {
		t.Fatal("unsubscribe failed")
	}
	a.Unsubscribe(10) // no-op
	if err := a.Subscribe(10, h); err != nil {
		t.Fatal("resubscribe after unsubscribe failed")
	}
}

func TestSniffersSeeAllTraffic(t *testing.T) {
	e := newEnv(6)
	a := e.node(t, 1, 0)
	c := e.node(t, 3, 10)
	e.node(t, 2, 5).Subscribe(10, func(*Packet, phys.NodeID, medium.RxInfo) {})
	var sniffed []phys.NodeID
	c.AddSniffer(func(src phys.NodeID, _ mac.FrameType, _ medium.RxInfo) {
		sniffed = append(sniffed, src)
	})
	c.AddSniffer(nil) // ignored
	a.Send(&Packet{Port: 10, Origin: 1, Dst: 2}, 2, mac.TypeData, nil)
	e.eng.Run()
	if len(sniffed) != 1 || sniffed[0] != 1 {
		t.Fatalf("sniffed = %v", sniffed)
	}
}

func TestSendLocal(t *testing.T) {
	e := newEnv(7)
	a := e.node(t, 1, 0)
	var got *Packet
	a.Subscribe(42, func(p *Packet, from phys.NodeID, _ medium.RxInfo) {
		if from != 1 {
			t.Errorf("local from = %d", from)
		}
		got = p
	})
	if err := a.SendLocal(&Packet{Port: 42, Data: []byte("loop")}); err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("local delivery ran synchronously; must be event-scheduled")
	}
	e.eng.Run()
	if got == nil || string(got.Data) != "loop" {
		t.Fatalf("local delivery failed: %+v", got)
	}
	if a.Stats().LocalDelivered != 1 {
		t.Fatalf("stats = %+v", a.Stats())
	}
	if err := a.SendLocal(&Packet{Port: 43}); err == nil {
		t.Fatal("local send to dead port accepted")
	}
	// No radio traffic for localhost packets.
	if e.med.Stats().Transmitted != 0 {
		t.Fatal("localhost packet hit the radio")
	}
}

func TestSendEncodesErrors(t *testing.T) {
	e := newEnv(8)
	a := e.node(t, 1, 0)
	bad := &Packet{Port: 1, Data: make([]byte, PayloadCeiling+5)}
	if err := a.Send(bad, 2, mac.TypeData, nil); err == nil {
		t.Fatal("oversized packet accepted")
	}
}

func TestPaddingSurvivesForwarding(t *testing.T) {
	// a → b: b reads the packet, appends the hop's link quality, and
	// forwards to c. c must see one pad record.
	e := newEnv(9)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	c := e.node(t, 3, 10)
	var final *Packet
	c.Subscribe(10, func(p *Packet, _ phys.NodeID, _ medium.RxInfo) { final = p })
	b.Subscribe(10, func(p *Packet, _ phys.NodeID, info medium.RxInfo) {
		if err := p.AppendPad(LinkQuality{LQI: uint8(info.LQI), RSSI: int8(info.RSSI)}); err != nil {
			t.Errorf("pad: %v", err)
		}
		if err := b.Send(p, 3, mac.TypeData, nil); err != nil {
			t.Errorf("forward: %v", err)
		}
	})
	probe := &Packet{Port: 10, Origin: 1, Dst: 3, TTL: 4, Flags: FlagPad, Data: make([]byte, 16)}
	a.Send(probe, 2, mac.TypeData, nil)
	e.eng.Run()
	if final == nil {
		t.Fatal("probe did not arrive")
	}
	if len(final.Pad) != 1 {
		t.Fatalf("pad records = %d, want 1", len(final.Pad))
	}
	if final.Pad[0].LQI < 100 {
		t.Fatalf("recorded LQI = %d", final.Pad[0].LQI)
	}
}

func TestControlFlagPropagatesThroughForwarding(t *testing.T) {
	// FlagControl marks management traffic so every hop classifies the
	// frame correctly for overhead accounting (Figure 7).
	e := newEnv(10)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	c := e.node(t, 3, 10)
	c.Subscribe(10, func(*Packet, phys.NodeID, medium.RxInfo) {})
	b.Subscribe(10, func(p *Packet, _ phys.NodeID, _ medium.RxInfo) {
		if p.Flags&FlagControl == 0 {
			t.Error("control flag lost in transit")
		}
		ftype := mac.TypeData
		if p.Flags&FlagControl != 0 {
			ftype = mac.TypeControl
		}
		if err := b.Send(p, 3, ftype, nil); err != nil {
			t.Error(err)
		}
	})
	p := &Packet{Port: 10, Origin: 1, Dst: 3, TTL: 4, Flags: FlagControl, Data: []byte("mgmt")}
	if err := a.Send(p, 2, mac.TypeControl, nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	// Both hops' frames count as control at the MAC level.
	if a.MAC().Stats().SentControl == 0 || b.MAC().Stats().SentControl == 0 {
		t.Fatalf("control accounting: a=%d b=%d",
			a.MAC().Stats().SentControl, b.MAC().Stats().SentControl)
	}
}
