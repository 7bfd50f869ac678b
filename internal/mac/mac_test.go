package mac

import (
	"errors"
	"testing"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

type rxRecord struct {
	frame Frame
	info  medium.RxInfo
}

type testNode struct {
	mac *MAC
	got []rxRecord
}

func buildPair(t *testing.T, seed uint64, dist float64) (*sim.Engine, *testNode, *testNode) {
	t.Helper()
	eng := sim.NewEngine(seed)
	model := phys.DefaultModel(seed)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mk := func(id phys.NodeID, x float64) *testNode {
		n := &testNode{}
		rad, err := radio.New(17)
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(eng, med, rad, id, phys.Position{X: x}, DefaultConfig(),
			func(f Frame, info medium.RxInfo) {
				// Delivered payloads are borrows; copy to retain.
				f.Payload = append([]byte(nil), f.Payload...)
				n.got = append(n.got, rxRecord{f, info})
			})
		if err != nil {
			t.Fatal(err)
		}
		n.mac = m
		return n
	}
	return eng, mk(1, 0), mk(2, dist)
}

func TestSendDeliver(t *testing.T) {
	eng, a, b := buildPair(t, 1, 5)
	var sentErr error
	sent := false
	err := a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: []byte("ping")}, func(f Frame, err error) {
		sent = true
		sentErr = err
	})
	if err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if !sent || sentErr != nil {
		t.Fatalf("sent=%v err=%v", sent, sentErr)
	}
	if len(b.got) != 1 {
		t.Fatalf("receiver got %d frames", len(b.got))
	}
	r := b.got[0]
	if r.frame.Src != 1 || r.frame.Dst != 2 || string(r.frame.Payload) != "ping" {
		t.Fatalf("frame = %+v", r.frame)
	}
	if r.info.LQI < 100 {
		t.Fatalf("LQI = %d at 5m", r.info.LQI)
	}
	if a.mac.Stats().Sent != 1 {
		t.Fatalf("sender stats = %+v", a.mac.Stats())
	}
	if b.mac.Stats().Received != 1 {
		t.Fatalf("receiver stats = %+v", b.mac.Stats())
	}
}

func TestSequenceNumbersIncrease(t *testing.T) {
	eng, a, b := buildPair(t, 2, 5)
	for i := 0; i < 3; i++ {
		if err := a.mac.Send(Frame{Type: TypeData, Dst: 2}, nil); err != nil {
			t.Fatal(err)
		}
	}
	eng.Run()
	if len(b.got) != 3 {
		t.Fatalf("got %d frames", len(b.got))
	}
	for i := 1; i < 3; i++ {
		if b.got[i].frame.Seq <= b.got[i-1].frame.Seq {
			t.Fatal("sequence numbers not increasing")
		}
	}
}

func TestQueueBounded(t *testing.T) {
	_, a, _ := buildPair(t, 3, 5)
	var errFull error
	for i := 0; i < QueueCap+2; i++ {
		err := a.mac.Send(Frame{Type: TypeData, Dst: 2}, nil)
		if err != nil {
			errFull = err
		}
	}
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("err = %v, want ErrQueueFull", errFull)
	}
	if a.mac.Stats().QueueDrops == 0 {
		t.Fatal("queue drop not counted")
	}
}

func TestQueueLenReflectsBacklog(t *testing.T) {
	eng, a, _ := buildPair(t, 4, 5)
	for i := 0; i < 4; i++ {
		a.mac.Send(Frame{Type: TypeData, Dst: 2}, nil)
	}
	if a.mac.QueueLen() != 4 {
		t.Fatalf("QueueLen = %d, want 4", a.mac.QueueLen())
	}
	eng.Run()
	if a.mac.QueueLen() != 0 {
		t.Fatalf("QueueLen after drain = %d", a.mac.QueueLen())
	}
}

func TestRadioOffRejectsSend(t *testing.T) {
	_, a, _ := buildPair(t, 5, 5)
	a.mac.Radio().SetState(radio.Off)
	if err := a.mac.Send(Frame{Type: TypeData, Dst: 2}, nil); !errors.Is(err, ErrRadioOff) {
		t.Fatalf("err = %v, want ErrRadioOff", err)
	}
}

func TestCSMADefersToBusyChannel(t *testing.T) {
	// Three nodes in range; two send at the same instant. CSMA backoff
	// must serialise most transmissions: the receiver should get both
	// frames intact in a large majority of trials.
	intactBoth := 0
	trials := 30
	for seed := uint64(0); seed < uint64(trials); seed++ {
		eng := sim.NewEngine(seed)
		model := phys.DefaultModel(seed)
		model.ShadowSigma = 0
		model.AsymSigma = 0
		med := medium.New(eng, model)
		var rx []Frame
		mk := func(id phys.NodeID, x float64, deliver DeliverFunc) *MAC {
			rad, _ := radio.New(17)
			m, err := New(eng, med, rad, id, phys.Position{X: x}, DefaultConfig(), deliver)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		a := mk(1, 0, func(Frame, medium.RxInfo) {})
		b := mk(2, 4, func(Frame, medium.RxInfo) {})
		mk(3, 2, func(f Frame, _ medium.RxInfo) { rx = append(rx, f) })
		a.Send(Frame{Type: TypeData, Dst: 3, Payload: make([]byte, 30)}, nil)
		b.Send(Frame{Type: TypeData, Dst: 3, Payload: make([]byte, 30)}, nil)
		eng.Run()
		if len(rx) == 2 {
			intactBoth++
		}
	}
	if intactBoth < trials*2/3 {
		t.Fatalf("CSMA serialised only %d/%d contending pairs", intactBoth, trials)
	}
}

func TestChannelAccessFailure(t *testing.T) {
	// A jammer node keeps the channel busy; the victim's CSMA must give
	// up with ErrChannelAccess. We emulate a jam by scheduling
	// back-to-back long transmissions from the jammer.
	eng := sim.NewEngine(9)
	model := phys.DefaultModel(9)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mkRad := func() *radio.Radio { r, _ := radio.New(17); return r }
	jam, err := New(eng, med, mkRad(), 1, phys.Position{}, DefaultConfig(), func(Frame, medium.RxInfo) {})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := New(eng, med, mkRad(), 2, phys.Position{X: 3}, DefaultConfig(), func(Frame, medium.RxInfo) {})
	if err != nil {
		t.Fatal(err)
	}
	// Saturate the air: the jammer transmits directly via the medium,
	// bypassing its own CSMA, to guarantee continuous busy.
	var jamTx func()
	deadline := sim.Time(0)
	raw, _ := (&Frame{Type: TypeData, Src: 1, Dst: 0xFFFF, Payload: make([]byte, MaxPayload)}).Encode()
	jamTx = func() {
		if eng.Now() > 500*1e6 { // 500 ms of jamming is plenty
			return
		}
		air, err := med.Transmit(jam, raw)
		if err != nil {
			t.Errorf("jam transmit: %v", err)
			return
		}
		deadline = eng.Now() + air
		eng.Schedule(air, jamTx)
	}
	jamTx()
	_ = deadline
	var gotErr error
	victim.Send(Frame{Type: TypeData, Dst: 1}, func(_ Frame, err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrChannelAccess) {
		t.Fatalf("err = %v, want ErrChannelAccess", gotErr)
	}
	if victim.Stats().ChannelAccess != 1 {
		t.Fatalf("stats = %+v", victim.Stats())
	}
}

// TestCorruptedFrameCountsAsCRCFailure corrupts every other data frame
// from node 1 to node 2 through the medium's fault hook: each corrupted
// copy is a CRC failure at the receiver, and only intact copies are
// delivered and counted as received.
func TestCorruptedFrameCountsAsCRCFailure(t *testing.T) {
	eng, a, b := buildPair(t, 11, 5)
	copies := 0
	a.mac.med.SetFaultHook(func(from, to phys.NodeID, _ int) medium.FaultEffect {
		if from != 1 || to != 2 {
			return medium.FaultEffect{}
		}
		copies++
		return medium.FaultEffect{Corrupt: copies%2 == 0}
	})
	for i := 0; i < 40; i++ {
		a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: make([]byte, 64)}, nil)
		eng.Run()
	}
	st := b.mac.Stats()
	if st.CRCFailures == 0 || int(st.CRCFailures) != copies/2 {
		t.Fatalf("CRCFailures=%d after %d copies, want %d", st.CRCFailures, copies, copies/2)
	}
	if int(st.Received) != len(b.got) {
		t.Fatalf("Received=%d but delivered=%d", st.Received, len(b.got))
	}
}

func TestNewValidation(t *testing.T) {
	eng := sim.NewEngine(1)
	med := medium.New(eng, phys.DefaultModel(1))
	rad, _ := radio.New(17)
	if _, err := New(eng, med, rad, 1, phys.Position{}, DefaultConfig(), nil); err == nil {
		t.Fatal("nil deliver accepted")
	}
}

func TestHalfDuplex(t *testing.T) {
	// While a node is transmitting a long frame, it cannot receive.
	eng, a, b := buildPair(t, 13, 5)
	a.mac.Send(Frame{Type: TypeData, Dst: 2, Payload: make([]byte, MaxPayload)}, nil)
	b.mac.Send(Frame{Type: TypeData, Dst: 1, Payload: make([]byte, MaxPayload)}, nil)
	eng.Run()
	// With CSMA both usually serialise, so this mostly checks no crash;
	// the medium-level half-duplex behaviour is asserted in package
	// medium. Here we just require both data frames eventually went out
	// (auto-acks are counted separately).
	if a.mac.Stats().SentData+b.mac.Stats().SentData < 2 {
		t.Fatalf("sent data = %d + %d", a.mac.Stats().SentData, b.mac.Stats().SentData)
	}
}

// TestBadFCSFailsAtEveryReceiver transmits a raw frame whose FCS is
// wrong straight through the medium, as the jammer above does: the
// medium's once-per-transmission check must mark it unverified, so
// every receiver runs the full decode and counts its own CRC failure.
func TestBadFCSFailsAtEveryReceiver(t *testing.T) {
	eng, a, b := buildPair(t, 21, 5)
	c, err := New(eng, a.mac.med, func() *radio.Radio { r, _ := radio.New(17); return r }(),
		3, phys.Position{Y: 5}, DefaultConfig(), func(Frame, medium.RxInfo) {
			t.Error("a frame with a bad FCS was delivered")
		})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := (&Frame{Type: TypeData, Src: 1, Dst: phys.Broadcast, Payload: []byte("jam")}).Encode()
	raw[len(raw)-1] ^= 0x01
	if _, err := a.mac.med.Transmit(a.mac, raw); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	for _, m := range []*MAC{b.mac, c} {
		if st := m.Stats(); st.CRCFailures != 1 || st.Received != 0 {
			t.Errorf("node %d: CRCFailures=%d Received=%d, want 1 and 0", m.id, st.CRCFailures, st.Received)
		}
	}
	if len(b.got) != 0 {
		t.Fatalf("node 2 delivered %d frames", len(b.got))
	}
}

// TestRxFaultFailsVerifiedFrame: a frame the medium delivered intact
// and verified still fails the CRC when the receive-path fault hook
// corrupts it at the receiver.
func TestRxFaultFailsVerifiedFrame(t *testing.T) {
	eng, a, b := buildPair(t, 23, 5)
	b.mac.SetRxFault(func(phys.NodeID) bool { return true })
	if err := a.mac.Send(Frame{Type: TypeData, Dst: phys.Broadcast, Payload: []byte("x")}, nil); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if st := b.mac.Stats(); st.CRCFailures != 1 || st.Received != 0 || len(b.got) != 0 {
		t.Fatalf("CRCFailures=%d Received=%d delivered=%d, want 1, 0, 0", st.CRCFailures, st.Received, len(b.got))
	}
}

// TestDupTableEvictsOldestSource fills the 32-row duplicate table past
// capacity: a retransmission from a remembered source is re-acked but
// not redelivered, and once 33 sources have been heard the oldest
// inserted one is forgotten, so its retransmission is delivered again.
func TestDupTableEvictsOldestSource(t *testing.T) {
	eng, _, b := buildPair(t, 25, 5)
	hear := func(src phys.NodeID, seq byte) {
		raw, err := (&Frame{Type: TypeData, Seq: seq, Src: src, Dst: 2}).Encode()
		if err != nil {
			t.Fatal(err)
		}
		b.mac.OnFrame(raw, medium.RxInfo{From: src})
		eng.Run()
	}
	hear(100, 7)
	hear(100, 7) // the sender missed our ack
	if st := b.mac.Stats(); st.Received != 1 || st.SentMACAcks != 2 {
		t.Fatalf("after a retransmission: Received=%d SentMACAcks=%d, want 1 and 2", st.Received, st.SentMACAcks)
	}
	for src := phys.NodeID(101); src < 101+dupTableSize; src++ {
		hear(src, 1) // 32 more sources: 100, the oldest of 33, is evicted
	}
	hear(101, 1) // still remembered
	if st := b.mac.Stats(); st.Received != 1+dupTableSize {
		t.Fatalf("Received=%d after a duplicate from a remembered source, want %d", st.Received, 1+dupTableSize)
	}
	hear(100, 7) // evicted: delivered again, evicting 101, now the oldest
	if st := b.mac.Stats(); st.Received != 2+dupTableSize {
		t.Fatalf("Received=%d, want %d: the oldest source was not evicted", st.Received, 2+dupTableSize)
	}
	hear(101, 1) // delivered again, evicting 102
	hear(103, 1) // still remembered
	if st := b.mac.Stats(); st.Received != 3+dupTableSize {
		t.Fatalf("Received=%d, want %d: eviction did not follow insertion order", st.Received, 3+dupTableSize)
	}
}
