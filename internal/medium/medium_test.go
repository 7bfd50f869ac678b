package medium

import (
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// fakeNode is a minimal Receiver for medium tests.
type fakeNode struct {
	id      phys.NodeID
	pos     phys.Position
	state   radio.State
	channel int
	power   int
	frames  []RxInfo
	raw     [][]byte
}

func newFake(id phys.NodeID, x, y float64) *fakeNode {
	return &fakeNode{id: id, pos: phys.Position{X: x, Y: y}, state: radio.RX, channel: 17, power: radio.MaxPowerLevel}
}

func (f *fakeNode) NodeID() phys.NodeID     { return f.id }
func (f *fakeNode) Position() phys.Position { return f.pos }
func (f *fakeNode) RadioState() radio.State { return f.state }
func (f *fakeNode) Channel() int            { return f.channel }
func (f *fakeNode) PowerLevel() int         { return f.power }
func (f *fakeNode) OnFrame(frame []byte, info RxInfo) {
	f.frames = append(f.frames, info)
	f.raw = append(f.raw, frame)
}

func newTestMedium() (*sim.Engine, *Medium) {
	eng := sim.NewEngine(42)
	model := phys.DefaultModel(42)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	return eng, New(eng, model)
}

func TestAttachDetach(t *testing.T) {
	_, m := newTestMedium()
	a := newFake(1, 0, 0)
	if err := m.Attach(a); err != nil {
		t.Fatal(err)
	}
	if err := m.Attach(a); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if m.Nodes() != 1 {
		t.Fatalf("Nodes = %d", m.Nodes())
	}
	m.Detach(1)
	if m.Nodes() != 0 {
		t.Fatalf("Nodes after detach = %d", m.Nodes())
	}
	m.Detach(1) // idempotent
}

func TestTransmitDelivers(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	frame := []byte{1, 2, 3, 4}
	air, err := m.Transmit(a, frame)
	if err != nil {
		t.Fatal(err)
	}
	if air != radio.FrameAirtime(4) {
		t.Fatalf("airtime = %v", air)
	}
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatalf("receiver got %d frames, want 1", len(b.frames))
	}
	info := b.frames[0]
	if info.Corrupted {
		t.Fatal("short-range full-power frame corrupted")
	}
	if info.From != 1 {
		t.Fatalf("From = %d", info.From)
	}
	if info.LQI < 100 {
		t.Fatalf("LQI at 5m full power = %d, want near 110", info.LQI)
	}
	if string(b.raw[0]) != string(frame) {
		t.Fatal("frame bytes mangled")
	}
	if len(a.frames) != 0 {
		t.Fatal("sender heard its own frame")
	}
}

func TestDeliveryAtEndOfAirtime(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, make([]byte, 32))
	eng.Run()
	if got := b.frames[0].At; got != radio.FrameAirtime(32) {
		t.Fatalf("delivered at %v, want %v", got, radio.FrameAirtime(32))
	}
}

func TestChannelIsolation(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	b.channel = 18
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame crossed channels")
	}
}

func TestNotListeningMisses(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	b.state = radio.TX
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 0 {
		t.Fatal("non-listening node received a frame")
	}
	if m.Stats().MissedNotListening != 1 {
		t.Fatalf("MissedNotListening = %d", m.Stats().MissedNotListening)
	}
}

func TestBelowSensitivityNeverDetected(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 100000, 0) // 100 km
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 0 {
		t.Fatal("frame detected below sensitivity")
	}
	if m.Stats().BelowSensitivity != 1 {
		t.Fatalf("BelowSensitivity = %d", m.Stats().BelowSensitivity)
	}
}

func TestCollisionCorrupts(t *testing.T) {
	eng, m := newTestMedium()
	// Two senders equidistant from the receiver transmit simultaneously:
	// SINR ≈ 0 dB, so reception should essentially always fail.
	a, b, c := newFake(1, 0, 0), newFake(2, 20, 0), newFake(3, 10, 0)
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	corrupted := 0
	trials := 50
	for i := 0; i < trials; i++ {
		c.frames = nil
		m.Transmit(a, make([]byte, 32))
		m.Transmit(b, make([]byte, 32))
		eng.Run()
		for _, f := range c.frames {
			if f.Corrupted {
				corrupted++
			}
		}
	}
	if corrupted < trials { // 2 frames per trial; expect nearly all corrupted
		t.Fatalf("only %d corrupted frames across %d colliding trials", corrupted, trials)
	}
}

func TestCaptureEffect(t *testing.T) {
	eng, m := newTestMedium()
	// Receiver is very close to a and far from b: a's frame should
	// survive b's concurrent transmission (capture).
	a, b, c := newFake(1, 0, 0), newFake(2, 60, 0), newFake(3, 2, 0)
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	okFromA := 0
	for i := 0; i < 50; i++ {
		c.frames = nil
		m.Transmit(a, make([]byte, 32))
		m.Transmit(b, make([]byte, 32))
		eng.Run()
		for _, f := range c.frames {
			if f.From == 1 && !f.Corrupted {
				okFromA++
			}
		}
	}
	if okFromA < 45 {
		t.Fatalf("capture failed: only %d/50 strong frames survived", okFromA)
	}
}

func TestEnergyDetect(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	if m.ChannelBusy(b, radio.CCAThresholdDBm) {
		t.Fatal("channel busy before any transmission")
	}
	m.Transmit(a, make([]byte, 64))
	// Sample mid-airtime.
	var busyMid bool
	eng.Schedule(radio.FrameAirtime(64)/2, func() {
		busyMid = m.ChannelBusy(b, radio.CCAThresholdDBm)
	})
	eng.Run()
	if !busyMid {
		t.Fatal("CCA did not see the ongoing transmission")
	}
	if m.ChannelBusy(b, radio.CCAThresholdDBm) {
		t.Fatal("channel still busy after airtime")
	}
}

func TestEnergyDetectIgnoresOtherChannel(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	b.channel = 20
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, make([]byte, 64))
	var busyMid bool
	eng.Schedule(radio.FrameAirtime(64)/2, func() {
		busyMid = m.ChannelBusy(b, radio.CCAThresholdDBm)
	})
	eng.Run()
	if busyMid {
		t.Fatal("CCA heard a transmission on a different channel")
	}
}

func TestTransmitValidation(t *testing.T) {
	_, m := newTestMedium()
	a := newFake(1, 0, 0)
	if _, err := m.Transmit(a, []byte{1}); err == nil {
		t.Fatal("transmit from unattached node accepted")
	}
	m.Attach(a)
	if _, err := m.Transmit(a, nil); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestStatsCounting(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1, 2})
	eng.Run()
	s := m.Stats()
	if s.Transmitted != 1 || s.Delivered != 1 {
		t.Fatalf("stats = %+v", s)
	}
	m.ResetStats()
	if m.Stats().Transmitted != 0 {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestFrameCopyIsolation(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	frame := []byte{9, 9, 9}
	m.Transmit(a, frame)
	frame[0] = 0 // mutate after transmit; receiver must see the original
	eng.Run()
	if b.raw[0][0] != 9 {
		t.Fatal("medium did not copy the frame on transmit")
	}
	// Receivers share one read-only slice (see Receiver.OnFrame); the
	// transmit-time copy is the only one the medium makes.
}

// TestNegativeFaultLossLiftsBelowFloorReceiver pins the fallback for a
// fault hook that returns a negative ExtraLossDB: the assessment skips
// the interference scan of a receiver under the sensitivity floor, so
// when the hook lifts that receiver back over the floor the commit must
// run the scan itself. A skipped scan would leave the
// noise-plus-interference level at zero and report SNRDB = RxPowerDBm.
func TestNegativeFaultLossLiftsBelowFloorReceiver(t *testing.T) {
	eng, m := newTestMedium()
	a := newFake(1, 0, 0)
	// Bisect for the distance where full power arrives 2 dB under the
	// floor: under sensitivity, but inside the reachability fade margin.
	txDBm := radio.PowerDBm(a.power)
	lo, hi := 1.0, 1000.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		if m.model.ReceivedPower(txDBm, 1, 2, a.pos, phys.Position{X: mid}) > radio.SensitivityDBm-2 {
			lo = mid
		} else {
			hi = mid
		}
	}
	b := newFake(2, lo, 0)
	m.Attach(a)
	m.Attach(b)
	m.SetFaultHook(func(from, to phys.NodeID, _ int) FaultEffect {
		return FaultEffect{ExtraLossDB: -10}
	})
	if _, err := m.Transmit(a, []byte{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatalf("lifted receiver got %d frames, want 1 (stats %+v)", len(b.frames), m.Stats())
	}
	info := b.frames[0]
	if info.RxPowerDBm < radio.SensitivityDBm {
		t.Fatalf("RxPowerDBm = %v, want lifted over the %v floor", info.RxPowerDBm, radio.SensitivityDBm)
	}
	if want := info.RxPowerDBm - mwToDBm(dbmToMW(m.model.NoiseFloor)); info.SNRDB != want {
		t.Fatalf("SNRDB = %v, want %v (RxPowerDBm − noise floor)", info.SNRDB, want)
	}
}
