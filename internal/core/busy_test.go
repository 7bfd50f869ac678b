package core_test

import (
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/stack"
	"liteview/internal/testbed"
)

// TestControllerBusyLatch drives the controller with a raw endpoint:
// two overlapping ping commands must produce one result stream and one
// StatusBusy rejection ("command in progress"), and the latch must
// clear afterwards.
func TestControllerBusyLatch(t *testing.T) {
	opt := testbed.DefaultOptions(101)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(2, 5, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(10 * time.Second)

	// A bare operator endpoint (not the Workstation wrapper, which
	// serializes synchronously and so can never overlap commands).
	rad, _ := radio.New(17)
	var st *stack.Stack
	m, err := mac.New(tb.Eng, tb.Med, rad, 0xFF00, phys.Position{X: -2}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		t.Fatal(err)
	}
	st = stack.New(tb.Eng, m)
	var replies []core.Reply
	ep, err := core.NewEndpoint(tb.Eng, st, core.DefaultReliableConfig(),
		func(_ phys.NodeID, payload []byte, _ medium.RxInfo, _ bool) {
			if rep, err := core.DecodeReply(payload); err == nil {
				replies = append(replies, rep)
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	// A slow command: 3 rounds to a dead target = ~750 ms busy.
	slow, err := core.Encode(&core.Command{Kind: core.KindPing, Dst: 99, Rounds: 3, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := core.Encode(&core.Command{Kind: core.KindPing, Dst: 2, Rounds: 1, Length: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := ep.Send(1, [][]byte{slow}, 0, nil); err != nil {
		t.Fatal(err)
	}
	// Let the first command land, then fire the second mid-flight.
	tb.Run(100 * time.Millisecond)
	if err := ep.Send(1, [][]byte{fast}, 0, nil); err != nil {
		t.Fatal(err)
	}
	tb.Run(3 * time.Second)

	busy, results := 0, 0
	for _, r := range replies {
		switch r.Kind {
		case core.KindStatus:
			if r.Status.Code == core.StatusBusy {
				busy++
				if !strings.Contains(r.Status.Msg, "progress") {
					t.Fatalf("busy message: %q", r.Status.Msg)
				}
			}
		case core.KindPingResult:
			results++
		}
	}
	if busy != 1 {
		t.Fatalf("busy rejections = %d, want 1 (replies: %d)", busy, len(replies))
	}
	if results != 3 {
		t.Fatalf("first command produced %d results, want 3", results)
	}
	// The latch cleared: a third command runs normally.
	replies = nil
	if err := ep.Send(1, [][]byte{fast}, 0, nil); err != nil {
		t.Fatal(err)
	}
	tb.Run(2 * time.Second)
	ok := false
	for _, r := range replies {
		if r.Kind == core.KindPingResult && !r.Ping.Lost {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("controller stuck busy after command completed: %+v", replies)
	}
}

// TestSecondWorkstationAddressCollision documents the single-operator
// assumption: the reserved base-station address cannot attach twice.
func TestSecondWorkstationAddressCollision(t *testing.T) {
	tb, _ := deploy(t, 2, 5, 102)
	if _, err := core.NewWorkstation(tb.Eng, tb.Med, phys.Position{X: 7}); err == nil {
		t.Fatal("two workstations with the same reserved address attached")
	}
}

// TestBackToBackCommandsAreClean exercises the per-node collector
// lifecycle: repeated commands to the same node never collide.
func TestBackToBackCommandsAreClean(t *testing.T) {
	_, ws := deploy(t, 2, 5, 103)
	for i := 0; i < 5; i++ {
		if _, err := ws.RadioGet(1); err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		if _, err := ws.Stats(2); err != nil {
			t.Fatalf("round %d stats: %v", i, err)
		}
	}
	_ = routing.GeographicPort
}
