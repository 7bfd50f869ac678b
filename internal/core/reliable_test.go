package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

type relEnv struct {
	eng *sim.Engine
	med *medium.Medium
}

type relNode struct {
	st  *stack.Stack
	ep  *Endpoint
	got [][]byte
}

func newRelEnv(seed uint64) *relEnv {
	eng := sim.NewEngine(seed)
	model := phys.DefaultModel(seed)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	return &relEnv{eng: eng, med: medium.New(eng, model)}
}

func (e *relEnv) node(t *testing.T, id phys.NodeID, x float64) *relNode {
	t.Helper()
	n := &relNode{}
	rad, _ := radio.New(17)
	var st *stack.Stack
	m, err := mac.New(e.eng, e.med, rad, id, phys.Position{X: x}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		t.Fatal(err)
	}
	st = stack.New(e.eng, m)
	n.st = st
	ep, err := NewEndpoint(e.eng, st, DefaultReliableConfig(), func(_ phys.NodeID, payload []byte, _ medium.RxInfo, _ bool) {
		n.got = append(n.got, payload)
	})
	if err != nil {
		t.Fatal(err)
	}
	n.ep = ep
	return n
}

func TestSingleMessageAckRoundTrip(t *testing.T) {
	e := newRelEnv(1)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	var doneErr error
	done := false
	if err := a.ep.Send(2, [][]byte{[]byte("cmd")}, 0, func(err error) { done = true; doneErr = err }); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if !done || doneErr != nil {
		t.Fatalf("done=%v err=%v", done, doneErr)
	}
	if len(b.got) != 1 || string(b.got[0]) != "cmd" {
		t.Fatalf("received %v", b.got)
	}
	if a.ep.Stats().Completed != 1 || a.ep.Stats().AcksReceived == 0 {
		t.Fatalf("stats = %+v", a.ep.Stats())
	}
	if b.ep.Stats().AcksSent == 0 {
		t.Fatalf("receiver never acked: %+v", b.ep.Stats())
	}
}

func TestMultiMessageTransferInOrder(t *testing.T) {
	e := newRelEnv(2)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	var msgs [][]byte
	for i := 0; i < 20; i++ {
		msgs = append(msgs, []byte(fmt.Sprintf("msg-%02d", i)))
	}
	done := false
	if err := a.ep.Send(2, msgs, 0, func(err error) {
		done = true
		if err != nil {
			t.Errorf("transfer failed: %v", err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if !done {
		t.Fatal("transfer never completed")
	}
	if len(b.got) != 20 {
		t.Fatalf("received %d messages, want 20", len(b.got))
	}
	for i, m := range b.got {
		if string(m) != fmt.Sprintf("msg-%02d", i) {
			t.Fatalf("out of order at %d: %q", i, m)
		}
	}
}

func TestTransferFailsWhenPeerGone(t *testing.T) {
	e := newRelEnv(3)
	a := e.node(t, 1, 0)
	// Peer 5 km away: nothing gets through.
	e.node(t, 2, 5000)
	var gotErr error
	done := false
	if err := a.ep.Send(2, [][]byte{[]byte("x")}, 0, func(err error) { done = true; gotErr = err }); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if !done || !errors.Is(gotErr, ErrXferFailed) {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
	st := a.ep.Stats()
	if st.Failures != 1 || st.Retransmissions == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestAdaptiveBatchRecoversFromLoss(t *testing.T) {
	// A lossy (but workable) link: transfer must still complete via
	// retransmissions, exercising the shrink-on-loss path.
	e := newRelEnv(4)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 39) // near the edge of range: some loss
	var msgs [][]byte
	for i := 0; i < 30; i++ {
		msgs = append(msgs, []byte{byte(i)})
	}
	done := false
	var gotErr error
	a.ep.Send(2, msgs, 0, func(err error) { done = true; gotErr = err })
	e.eng.Run()
	if !done {
		t.Fatal("no completion callback")
	}
	if gotErr != nil {
		t.Skipf("link too lossy at this seed: %v", gotErr)
	}
	if len(b.got) != 30 {
		t.Fatalf("received %d/30", len(b.got))
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Force retransmissions by making acks race the timeout: shrink the
	// ack timeout below the round trip so the sender always retransmits
	// at least once, then verify the receiver delivered each message
	// exactly once.
	eng := sim.NewEngine(5)
	model := phys.DefaultModel(5)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mk := func(id phys.NodeID, x float64, got *[][]byte) *Endpoint {
		rad, _ := radio.New(17)
		var st *stack.Stack
		m, err := mac.New(eng, med, rad, id, phys.Position{X: x}, mac.DefaultConfig(),
			func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
		if err != nil {
			t.Fatal(err)
		}
		st = stack.New(eng, m)
		cfg := DefaultReliableConfig()
		cfg.AckTimeout = 2 * time.Millisecond // below one exchange RTT
		cfg.MaxRetries = 10
		ep, err := NewEndpoint(eng, st, cfg, func(_ phys.NodeID, p []byte, _ medium.RxInfo, _ bool) {
			if got != nil {
				*got = append(*got, p)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return ep
	}
	a := mk(1, 0, nil)
	var got [][]byte
	b := mk(2, 5, &got)
	a.Send(2, [][]byte{[]byte("once")}, 0, nil)
	eng.Run()
	if len(got) != 1 {
		t.Fatalf("delivered %d times, want exactly 1", len(got))
	}
	if a.Stats().Retransmissions == 0 {
		t.Fatal("test premise broken: no retransmissions happened")
	}
	if b.Stats().Duplicates == 0 {
		t.Fatal("receiver saw no duplicates despite retransmissions")
	}
}

func TestBroadcastFireAndForget(t *testing.T) {
	e := newRelEnv(6)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	c := e.node(t, 3, 8)
	done := false
	var doneErr error
	if err := a.ep.Send(phys.Broadcast, [][]byte{[]byte("everyone")}, 0, func(err error) {
		done = true
		doneErr = err
	}); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if !done || doneErr != nil {
		t.Fatalf("broadcast done=%v err=%v", done, doneErr)
	}
	if len(b.got) != 1 || len(c.got) != 1 {
		t.Fatalf("broadcast reached %d+%d, want 1+1", len(b.got), len(c.got))
	}
	// No acks must have flowed for the broadcast.
	if b.ep.Stats().AcksSent != 0 || c.ep.Stats().AcksSent != 0 {
		t.Fatal("receivers acked a broadcast")
	}
}

func TestBroadcastFlagDelivered(t *testing.T) {
	eng := sim.NewEngine(7)
	model := phys.DefaultModel(7)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	med := medium.New(eng, model)
	mkStack := func(id phys.NodeID, x float64) *stack.Stack {
		rad, _ := radio.New(17)
		var st *stack.Stack
		m, _ := mac.New(eng, med, rad, id, phys.Position{X: x}, mac.DefaultConfig(),
			func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
		st = stack.New(eng, m)
		return st
	}
	sa := mkStack(1, 0)
	sb := mkStack(2, 5)
	epA, _ := NewEndpoint(eng, sa, DefaultReliableConfig(), func(phys.NodeID, []byte, medium.RxInfo, bool) {})
	var sawBroadcast, sawUnicast bool
	NewEndpoint(eng, sb, DefaultReliableConfig(), func(_ phys.NodeID, _ []byte, _ medium.RxInfo, bc bool) {
		if bc {
			sawBroadcast = true
		} else {
			sawUnicast = true
		}
	})
	epA.Send(phys.Broadcast, [][]byte{[]byte("b")}, 0, nil)
	epA.Send(2, [][]byte{[]byte("u")}, 0, nil)
	eng.Run()
	if !sawBroadcast || !sawUnicast {
		t.Fatalf("broadcast=%v unicast=%v", sawBroadcast, sawUnicast)
	}
}

func TestSendValidation(t *testing.T) {
	e := newRelEnv(8)
	a := e.node(t, 1, 0)
	if err := a.ep.Send(2, nil, 0, nil); err == nil {
		t.Fatal("empty transfer accepted")
	}
	big := make([]byte, stack.PayloadCeiling)
	if err := a.ep.Send(2, [][]byte{big}, 0, nil); err == nil {
		t.Fatal("oversized message accepted")
	}
}

func TestEndpointConfigValidation(t *testing.T) {
	e := newRelEnv(9)
	rad, _ := radio.New(17)
	var st *stack.Stack
	m, _ := mac.New(e.eng, e.med, rad, 7, phys.Position{}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	st = stack.New(e.eng, m)
	if _, err := NewEndpoint(e.eng, st, DefaultReliableConfig(), nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	bad := DefaultReliableConfig()
	bad.AckTimeout = 0
	if _, err := NewEndpoint(e.eng, st, bad, func(phys.NodeID, []byte, medium.RxInfo, bool) {}); err == nil {
		t.Fatal("zero timeout accepted")
	}
}

func TestGroupBackoffWithinWindow(t *testing.T) {
	e := newRelEnv(10)
	a := e.node(t, 1, 0)
	cfg := DefaultReliableConfig()
	for i := 0; i < 200; i++ {
		d := a.ep.GroupBackoff()
		if d < 0 || d >= cfg.GroupBackoffMax {
			t.Fatalf("backoff %v outside [0, %v)", d, cfg.GroupBackoffMax)
		}
	}
}

func TestTransferFailsUnderTotalLoss(t *testing.T) {
	// 100% injected loss: every frame arrives corrupted. The transfer
	// must abandon with ErrXferFailed inside the retry budget — the
	// paper's 500 ms response window — and leave no timers behind.
	e := newRelEnv(11)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	e.med.SetLossFunc(func(phys.NodeID, phys.NodeID, []byte) bool { return true })
	var gotErr error
	done := false
	start := e.eng.Now()
	if err := a.ep.Send(2, [][]byte{[]byte("a"), []byte("b"), []byte("c")}, 0,
		func(err error) { done = true; gotErr = err }); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	if !done || !errors.Is(gotErr, ErrXferFailed) {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
	// Retry budget: (MaxRetries+1) ack timeouts plus the capped
	// exponential backoffs between rounds must fit the 500 ms window.
	if elapsed := e.eng.Now() - start; elapsed > 500*time.Millisecond {
		t.Fatalf("failure took %v, over the 500 ms response window", elapsed)
	}
	if e.eng.Pending() != 0 {
		t.Fatalf("%d leaked timer(s)", e.eng.Pending())
	}
	if len(b.got) != 0 {
		t.Fatalf("receiver got %d messages through 100%% loss", len(b.got))
	}
}

func TestTransferAbortsOnReceiverCrashMidBatch(t *testing.T) {
	// The receiver dies mid-transfer: its endpoint state is wiped (the
	// crash path calls Reset) and nothing it hears is answered again.
	// The sender must fail the transfer within its retry budget rather
	// than hang on a peer that will never ack.
	e := newRelEnv(12)
	a := e.node(t, 1, 0)
	b := e.node(t, 2, 5)
	var msgs [][]byte
	for i := 0; i < 30; i++ {
		msgs = append(msgs, []byte{byte(i)})
	}
	var gotErr error
	done := false
	start := e.eng.Now()
	if err := a.ep.Send(2, msgs, 0, func(err error) { done = true; gotErr = err }); err != nil {
		t.Fatal(err)
	}
	// Crash after the first batches land: wipe the receiver's transfer
	// state and drop everything addressed to it from then on.
	e.eng.Schedule(20*time.Millisecond, func() {
		b.ep.Reset()
		received := len(b.got)
		b.got = b.got[:received] // freeze what arrived pre-crash
		e.med.SetLossFunc(func(_ phys.NodeID, to phys.NodeID, _ []byte) bool { return to == 2 })
	})
	e.eng.Run()
	if !done || !errors.Is(gotErr, ErrXferFailed) {
		t.Fatalf("done=%v err=%v", done, gotErr)
	}
	if len(b.got) >= 30 {
		t.Fatal("receiver completed a transfer it crashed out of")
	}
	// Budget: the batches that landed pre-crash plus a full retry
	// ladder; generously under one second.
	if elapsed := e.eng.Now() - start; elapsed > time.Second {
		t.Fatalf("failure took %v", elapsed)
	}
	if e.eng.Pending() != 0 {
		t.Fatalf("%d leaked timer(s)", e.eng.Pending())
	}
}

func TestEndpointResetDropsTransfersWithoutCallbacks(t *testing.T) {
	// Reset on the *sender* abandons outgoing transfers silently (the
	// crash path: callbacks belong to processes that died with the
	// node) and cancels their timers.
	e := newRelEnv(13)
	a := e.node(t, 1, 0)
	e.node(t, 2, 5000) // out of range: the transfer would retry forever
	called := false
	if err := a.ep.Send(2, [][]byte{[]byte("x")}, 0, func(error) { called = true }); err != nil {
		t.Fatal(err)
	}
	e.eng.Schedule(5*time.Millisecond, func() { a.ep.Reset() })
	e.eng.Run()
	if called {
		t.Fatal("reset fired a completion callback")
	}
	if e.eng.Pending() != 0 {
		t.Fatalf("%d leaked timer(s) after reset", e.eng.Pending())
	}
}
