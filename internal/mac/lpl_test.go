package mac

import (
	"errors"
	"testing"
	"time"

	"liteview/internal/energy"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

func lplConfig() Config {
	cfg := DefaultConfig()
	cfg.LPL = true
	return cfg
}

type lplNode struct {
	mac   *MAC
	rad   *radio.Radio
	meter *energy.Meter
	got   []Frame
}

func buildLPLPair(t *testing.T, seed uint64, dist float64, cfgA, cfgB Config) (*sim.Engine, *lplNode, *lplNode) {
	t.Helper()
	eng := sim.NewEngine(seed)
	model := phys.DefaultModel(seed)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mk := func(id phys.NodeID, x float64, cfg Config) *lplNode {
		n := &lplNode{}
		rad, err := radio.New(17)
		if err != nil {
			t.Fatal(err)
		}
		n.rad = rad
		n.meter = energy.Attach(eng, rad, 0)
		m, err := New(eng, med, rad, id, phys.Position{X: x}, cfg,
			func(f Frame, _ medium.RxInfo) { n.got = append(n.got, f) })
		if err != nil {
			t.Fatal(err)
		}
		n.mac = m
		return n
	}
	return eng, mk(1, 0, cfgA), mk(2, dist, cfgB)
}

func TestLPLDutyCycle(t *testing.T) {
	eng, a, b := buildLPLPair(t, 1, 5, lplConfig(), lplConfig())
	_ = a
	eng.RunUntil(10 * time.Second)
	st := b.meter.Stats()
	total := st.RXTime + st.OffTime + st.TXTime
	if total < 9*time.Second {
		t.Fatalf("timeline gap: %+v", st)
	}
	duty := float64(st.RXTime) / float64(total)
	// WakeWindow 6 ms per 100 ms interval ≈ 6-10% awake when idle.
	if duty > 0.15 {
		t.Fatalf("idle duty cycle = %.1f%%, want < 15%%", duty*100)
	}
	if duty <= 0 {
		t.Fatal("node never woke")
	}
}

func TestLPLUnicastDelivery(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		eng, a, b := buildLPLPair(t, seed, 5, lplConfig(), lplConfig())
		eng.RunUntil(time.Second) // settle into the cycle
		var sentErr error
		done := false
		start := eng.Now()
		err := a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("wake up")},
			func(_ Frame, err error) { done = true; sentErr = err })
		if err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 2*time.Second)
		if !done || sentErr != nil {
			t.Fatalf("seed %d: done=%v err=%v", seed, done, sentErr)
		}
		if len(b.got) == 0 {
			t.Fatalf("seed %d: LPL unicast lost", seed)
		}
		// Delivery latency is bounded by roughly one sleep interval.
		elapsed := eng.Now() - start
		_ = elapsed
		if a.mac.Stats().AckedOK == 0 {
			t.Fatalf("seed %d: no ack confirmation", seed)
		}
	}
}

func TestLPLUnicastStopsEarlyOnAck(t *testing.T) {
	eng, a, b := buildLPLPair(t, 3, 5, lplConfig(), lplConfig())
	eng.RunUntil(time.Second)
	a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("x")}, nil)
	eng.RunUntil(eng.Now() + 2*time.Second)
	if a.mac.Stats().AckedOK == 0 {
		t.Fatal("frame never acked")
	}
	if len(b.got) != 1 {
		t.Fatalf("delivered %d copies up the stack, want 1 (duplicate suppression)", len(b.got))
	}
	// Early stop: once acked, the sender goes quiet — no further
	// repeats accrue afterwards (the receiver's wake phase decides how
	// many copies were needed, but never more than the retry window).
	sent := a.mac.Stats().Sent
	eng.RunUntil(eng.Now() + 2*time.Second)
	if got := a.mac.Stats().Sent; got != sent {
		t.Fatalf("sender kept transmitting after the ack: %d → %d", sent, got)
	}
	maxCopies := uint64(lplRepeatWindow/(2*time.Millisecond)) + 2
	if sent > maxCopies {
		t.Fatalf("sender sent %d copies, beyond the %d-copy retry window", sent, maxCopies)
	}
}

func TestLPLBroadcastCoversWakeWindows(t *testing.T) {
	// Three LPL receivers with independent phases: a single broadcast
	// send (with its repeats) must reach all of them.
	eng := sim.NewEngine(7)
	model := phys.DefaultModel(7)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mk := func(id phys.NodeID, x float64) *lplNode {
		n := &lplNode{}
		rad, _ := radio.New(17)
		n.rad = rad
		m, err := New(eng, med, rad, id, phys.Position{X: x}, lplConfig(),
			func(f Frame, _ medium.RxInfo) { n.got = append(n.got, f) })
		if err != nil {
			t.Fatal(err)
		}
		n.mac = m
		return n
	}
	sender := mk(1, 0)
	receivers := []*lplNode{mk(2, 4), mk(3, 6), mk(4, 8)}
	eng.RunUntil(time.Second)
	done := false
	sender.mac.Send(Frame{Type: TypeBeacon, Dst: phys.Broadcast, Payload: []byte("hello all")},
		func(Frame, error) { done = true })
	eng.RunUntil(eng.Now() + 2*time.Second)
	if !done {
		t.Fatal("broadcast never completed")
	}
	for i, r := range receivers {
		if len(r.got) == 0 {
			t.Fatalf("receiver %d missed the broadcast", i+2)
		}
	}
	// The repeats spanned at least one sleep interval.
	if sender.mac.Stats().Sent < 10 {
		t.Fatalf("broadcast repeated only %d times", sender.mac.Stats().Sent)
	}
}

func TestLPLEnergySavings(t *testing.T) {
	run := func(lpl bool) float64 {
		cfg := DefaultConfig()
		cfg.LPL = lpl
		eng, _, b := buildLPLPair(t, 9, 5, cfg, cfg)
		eng.RunUntil(60 * time.Second)
		return b.meter.ConsumedJ()
	}
	alwaysOn := run(false)
	lpl := run(true)
	if lpl >= alwaysOn/3 {
		t.Fatalf("LPL consumed %.3f J vs %.3f J always-on: savings too small", lpl, alwaysOn)
	}
}

func TestLPLSendWhileAsleepWakes(t *testing.T) {
	eng, a, b := buildLPLPair(t, 11, 5, lplConfig(), lplConfig())
	// Run until node a is actually asleep, then send.
	for a.rad.State() != radio.Off {
		if !eng.Step() {
			t.Fatal("engine drained before the node slept")
		}
	}
	if err := a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("x")}, nil); err != nil {
		t.Fatalf("send while asleep: %v", err)
	}
	eng.RunUntil(eng.Now() + 2*time.Second)
	if len(b.got) == 0 {
		t.Fatal("frame sent while asleep never delivered")
	}
}

// TestLPLCrashedStaysDark power-fails an LPL MAC the way Node.Crash
// does (Reset, then radio off): until Boot, a send must not wake the
// radio, so a crashed node cannot answer traffic through its duty cycle.
func TestLPLCrashedStaysDark(t *testing.T) {
	eng, a, b := buildLPLPair(t, 17, 5, lplConfig(), lplConfig())
	eng.RunUntil(time.Second)
	a.mac.Reset()
	a.rad.SetState(radio.Off)
	for i := 0; i < 2; i++ {
		if err := a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("x")}, nil); !errors.Is(err, ErrRadioOff) {
			t.Fatalf("send on a crashed LPL MAC: err = %v, want ErrRadioOff", err)
		}
		if a.rad.State() != radio.Off {
			t.Fatalf("send woke a crashed node's radio: state %v", a.rad.State())
		}
		eng.RunUntil(eng.Now() + time.Second)
	}
	a.rad.SetState(radio.RX)
	a.mac.Boot()
	eng.RunUntil(eng.Now() + time.Second)
	if err := a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("y")}, nil); err != nil {
		t.Fatalf("send after Boot: %v", err)
	}
	eng.RunUntil(eng.Now() + 2*time.Second)
	if len(b.got) != 1 {
		t.Fatalf("receiver got %d frames, want only the one sent after Boot", len(b.got))
	}
}

func TestNonLPLRejectsSendWhenOff(t *testing.T) {
	eng, a, _ := buildLPLPair(t, 13, 5, DefaultConfig(), DefaultConfig())
	_ = eng
	a.rad.SetState(radio.Off)
	if err := a.mac.Send(Frame{Type: TypeData, Dst: 2}, nil); err == nil {
		t.Fatal("always-on MAC accepted a send with the radio off")
	}
}
