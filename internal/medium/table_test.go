package medium

import (
	"reflect"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// reattachScenario attaches node 2 at 5 m, lets node 1 transmit,
// detaches node 2, moves it 100 km away, re-attaches it, and transmits
// again. It returns how many frames node 2 received.
func reattachScenario(t *testing.T, shard bool) int {
	t.Helper()
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	for _, n := range []*fakeNode{a, b} {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if shard {
		if err := m.SetSharding(Sharding{Workers: 1}); err != nil {
			t.Fatal(err)
		}
	}
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatalf("close-range frame not delivered (shard=%v)", shard)
	}
	m.Detach(2)
	b.pos = phys.Position{X: 100000, Y: 0}
	if err := m.Attach(b); err != nil {
		t.Fatal(err)
	}
	m.Transmit(a, []byte{2})
	eng.Run()
	return len(b.frames)
}

// TestReattachDropsStaleBudget checks that budgets cached for a node do
// not outlive its attachment: a node that detaches and comes back 100 km
// away must not hear a frame it would never reach, in either mode.
func TestReattachDropsStaleBudget(t *testing.T) {
	for _, shard := range []bool{false, true} {
		if n := reattachScenario(t, shard); n != 1 {
			t.Fatalf("shard=%v: re-attached node received %d frames, want 1 (stale budget)", shard, n)
		}
	}
}

// midFlightMoveScenario drives overlapping traffic over a 3×3 grid
// (15 m spacing) and moves node mover to dest while a 100-byte frame
// from node 1 is in the air. A first round of traffic fills the
// movers' link-table rows and columns before the move; CCA samples
// right after the move read them too. The move stays well inside radio
// range, so the candidate set the index captured is the set the legacy
// scan filters inline, and the two modes must agree byte for byte.
func midFlightMoveScenario(t *testing.T, indexed bool, mover phys.NodeID, dest phys.Position) ([]TapDelivery, []float64, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	m.SetReachabilityIndex(indexed)
	nodes := make([]*fakeNode, 9)
	for i := range nodes {
		nodes[i] = newFake(phys.NodeID(i+1), float64(i%3)*15, float64(i/3)*15)
		if err := m.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	node := func(id phys.NodeID) *fakeNode { return nodes[id-1] }
	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	var ccas []float64

	m.Transmit(node(1), make([]byte, 48))
	m.Transmit(node(9), make([]byte, 48))
	at := sim.Time(5_000_000)
	eng.MustSchedule(at, func() {
		m.Transmit(node(1), make([]byte, 100))
		m.Transmit(node(5), make([]byte, 32)) // ends before the move
	})
	eng.MustSchedule(at+radio.FrameAirtime(100)/2, func() {
		node(mover).pos = dest
		m.NodeMoved(mover)
		m.Transmit(node(3), make([]byte, 16)) // interferes at the mover
		ccas = append(ccas, m.EnergyDBmAt(node(mover)), m.EnergyDBmAt(node(7)))
	})
	eng.MustSchedule(sim.Time(10_000_000), func() {
		m.Transmit(node(mover), make([]byte, 48))
		m.Transmit(node(7), make([]byte, 48))
	})
	eng.Run()
	return deliveries, ccas, m.Stats()
}

func checkMidFlightMovePurity(t *testing.T, mover phys.NodeID, dest phys.Position) {
	t.Helper()
	dOn, cOn, sOn := midFlightMoveScenario(t, true, mover, dest)
	dOff, cOff, sOff := midFlightMoveScenario(t, false, mover, dest)
	if len(dOn) == 0 {
		t.Fatal("scenario produced no deliveries")
	}
	if len(dOn) != len(dOff) {
		t.Fatalf("delivery counts differ: indexed %d vs legacy %d", len(dOn), len(dOff))
	}
	for i := range dOn {
		if dOn[i] != dOff[i] {
			t.Fatalf("delivery %d differs:\nindexed %+v\nlegacy  %+v", i, dOn[i], dOff[i])
		}
	}
	if !reflect.DeepEqual(cOn, cOff) {
		t.Fatalf("CCA samples differ: indexed %v vs legacy %v", cOn, cOff)
	}
	if sOn != sOff {
		t.Fatalf("stats differ:\nindexed %+v\nlegacy  %+v", sOn, sOff)
	}
}

// TestReceiverMovesMidFlightPurity moves a receiver (the far corner)
// while frames addressed to it are in flight: its column of the link
// table must be purged, or the in-flight delivery and the interference
// terms would use budgets from where it stood.
func TestReceiverMovesMidFlightPurity(t *testing.T) {
	checkMidFlightMovePurity(t, 9, phys.Position{X: 38, Y: 22})
}

// TestTransmitterMovesMidFlightPurity moves node 1 while its own frame
// is in the air, amid interference: the in-flight frame delivers from
// the captured position, and its row of the link table must be purged
// before the post-move transmission.
func TestTransmitterMovesMidFlightPurity(t *testing.T) {
	checkMidFlightMovePurity(t, 1, phys.Position{X: -6, Y: 8})
}
