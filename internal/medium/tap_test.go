package medium

import (
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
)

func TestTapObservesTransmissions(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	var records []TapRecord
	m.SetTap(func(r TapRecord) { records = append(records, r) })
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(records) != 1 {
		t.Fatalf("tap saw %d records", len(records))
	}
	r := records[0]
	if r.From != 1 || r.Channel != 17 || r.Bytes != 10 {
		t.Fatalf("record = %+v", r)
	}
	if r.End-r.Start != radio.FrameAirtime(10) {
		t.Fatalf("airtime = %v", r.End-r.Start)
	}
	if r.TxDBm != 0 {
		t.Fatalf("tx power = %f, want 0 dBm at full PA", r.TxDBm)
	}
	m.SetTap(nil)
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(records) != 1 {
		t.Fatal("removed tap still firing")
	}
}

// TestFaultHookInjectsCorruption: a fault hook's Corrupt effect makes
// the frame arrive corrupted (cause "jam"), and removing the hook
// restores clean delivery.
func TestFaultHookInjectsCorruption(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	var causes []string
	m.SetDeliveryTap(func(d TapDelivery) { causes = append(causes, d.Cause) })
	m.SetFaultHook(func(from, to phys.NodeID, _ int) FaultEffect {
		return FaultEffect{Corrupt: from == 1 && to == 2}
	})
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(b.frames) != 1 || !b.frames[0].Corrupted {
		t.Fatalf("injected fault did not corrupt: %+v", b.frames)
	}
	if len(causes) != 1 || causes[0] != "jam" {
		t.Fatalf("delivery causes = %q, want [jam]", causes)
	}
	// Remove the hook: traffic flows again.
	m.SetFaultHook(nil)
	b.frames = nil
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(b.frames) != 1 || b.frames[0].Corrupted {
		t.Fatal("hook removal failed")
	}
}
