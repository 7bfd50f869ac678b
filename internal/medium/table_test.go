package medium

import (
	"math"
	"reflect"
	"testing"
	"unsafe"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// reattachScenario attaches node 2 at 5 m, lets node 1 transmit,
// detaches node 2, moves it 100 km away, re-attaches it, and transmits
// again. It returns every delivery outcome, the stats, and how many
// frames node 2 received.
func reattachScenario(t *testing.T, shard, oracle bool) ([]delivery, Stats, int) {
	t.Helper()
	eng, m := newTestMedium()
	useOracle(m, oracle)
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	for _, n := range []*fakeNode{a, b} {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if shard {
		m.SetSharding(Sharding{})
	}
	obs := observe(t, eng, m, a, b)
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatalf("close-range frame not delivered (shard=%v oracle=%v)", shard, oracle)
	}
	m.Detach(2)
	b.pos = phys.Position{X: 100000, Y: 0}
	if err := m.Attach(b); err != nil {
		t.Fatal(err)
	}
	m.Transmit(a, []byte{2})
	eng.Run()
	return obs.deliveries(), m.Stats(), len(b.frames)
}

// TestReattachDropsStaleBudget checks that nothing the medium caches for
// a node outlives its attachment: a node that detaches and comes back 100 km
// away must not hear a frame it would never reach. The single-cell and
// sharded media must both match the full-scan oracle byte for byte.
func TestReattachDropsStaleBudget(t *testing.T) {
	dOracle, sOracle, nOracle := reattachScenario(t, false, true)
	if nOracle != 1 {
		t.Fatalf("oracle: re-attached node received %d frames, want 1", nOracle)
	}
	for _, shard := range []bool{false, true} {
		d, s, n := reattachScenario(t, shard, false)
		if n != 1 {
			t.Fatalf("shard=%v: re-attached node received %d frames, want 1 (stale budget)", shard, n)
		}
		if !reflect.DeepEqual(d, dOracle) {
			t.Fatalf("shard=%v: deliveries diverge from the oracle:\nmedium %+v\noracle %+v", shard, d, dOracle)
		}
		if s != sOracle {
			t.Fatalf("shard=%v: stats %+v, oracle %+v", shard, s, sOracle)
		}
	}
}

// midFlightMoveScenario drives overlapping traffic over a 3×3 grid
// (15 m spacing) and moves node mover to dest while a 100-byte frame
// from node 1 is in the air. A first round of traffic fills the
// movers' memo rows and columns before the move; CCA samples right
// after the move read the captured candidate sets. The move stays well inside radio
// range, so the candidate set captured at transmit time is the set the
// full-scan oracle filters inline, and the two must agree byte for byte.
func midFlightMoveScenario(t *testing.T, oracle bool, mover phys.NodeID, dest phys.Position) ([]delivery, []float64, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	energy := useOracle(m, oracle)
	nodes := make([]*fakeNode, 9)
	for i := range nodes {
		nodes[i] = newFake(phys.NodeID(i+1), float64(i%3)*15, float64(i/3)*15)
		if err := m.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	node := func(id phys.NodeID) *fakeNode { return nodes[id-1] }
	obs := observe(t, eng, m, nodes...)
	var ccas []float64

	m.Transmit(node(1), make([]byte, 48))
	m.Transmit(node(9), make([]byte, 48))
	at := sim.Time(5_000_000)
	eng.Schedule(at, func() {
		m.Transmit(node(1), make([]byte, 100))
		m.Transmit(node(5), make([]byte, 32)) // ends before the move
	})
	eng.Schedule(at+radio.FrameAirtime(100)/2, func() {
		node(mover).pos = dest
		m.NodeMoved(mover)
		m.Transmit(node(3), make([]byte, 16)) // interferes at the mover
		ccas = append(ccas, energy(node(mover)), energy(node(7)))
	})
	eng.Schedule(sim.Time(10_000_000), func() {
		m.Transmit(node(mover), make([]byte, 48))
		m.Transmit(node(7), make([]byte, 48))
	})
	eng.Run()
	return obs.deliveries(), ccas, m.Stats()
}

func checkMidFlightMovePurity(t *testing.T, mover phys.NodeID, dest phys.Position) {
	t.Helper()
	dOn, cOn, sOn := midFlightMoveScenario(t, false, mover, dest)
	dOff, cOff, sOff := midFlightMoveScenario(t, true, mover, dest)
	if len(dOn) == 0 {
		t.Fatal("scenario produced no deliveries")
	}
	if len(dOn) != len(dOff) {
		t.Fatalf("delivery counts differ: medium %d vs oracle %d", len(dOn), len(dOff))
	}
	for i := range dOn {
		if dOn[i] != dOff[i] {
			t.Fatalf("delivery %d differs:\nmedium %+v\noracle %+v", i, dOn[i], dOff[i])
		}
	}
	if !reflect.DeepEqual(cOn, cOff) {
		t.Fatalf("CCA samples differ: medium %v vs oracle %v", cOn, cOff)
	}
	if sOn != sOff {
		t.Fatalf("stats differ:\nmedium %+v\noracle %+v", sOn, sOff)
	}
}

// TestReceiverMovesMidFlightPurity moves a receiver (the far corner)
// while frames addressed to it are in flight: its column of the power
// memo must be purged, or the interference terms would use powers from
// where it stood.
func TestReceiverMovesMidFlightPurity(t *testing.T) {
	checkMidFlightMovePurity(t, 9, phys.Position{X: 38, Y: 22})
}

// TestTransmitterMovesMidFlightPurity moves node 1 while its own frame
// is in the air, amid interference: the in-flight frame delivers from
// the captured position, and its row of the power memo must be purged
// before the post-move transmission.
func TestTransmitterMovesMidFlightPurity(t *testing.T) {
	checkMidFlightMovePurity(t, 1, phys.Position{X: -6, Y: 8})
}

// TestLinkMemoFootprint checks what the medium keeps per link: on the
// scale experiment's 20×20 grid (14 m spacing) plus a workstation, all
// in one cell, after every node has transmitted into overlapping
// traffic, no type the medium reaches holds a phys.Budget, and the power
// memo holds one float64 per (transmitter row, member slot) pair plus
// one header per row.
func TestLinkMemoFootprint(t *testing.T) {
	if p := budgetPath(reflect.TypeOf(Medium{}), "Medium", map[reflect.Type]bool{}); p != "" {
		t.Fatalf("the medium caches a phys.Budget at %s", p)
	}
	eng := sim.NewEngine(1)
	m := New(eng, phys.DefaultModel(1))
	var nodes []*fakeNode
	for i := 0; i < 400; i++ {
		nodes = append(nodes, newFake(phys.NodeID(i+1), float64(i%20)*14, float64(i/20)*14))
	}
	nodes = append(nodes, newFake(401, 7, 7)) // the workstation
	for _, n := range nodes {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	// Frames 30 µs apart with 1.2 ms of airtime: each overlaps about 40
	// others, so every delivery's SINR scan reads the memo.
	for i, n := range nodes {
		eng.Schedule(sim.Time(i)*30_000, func() {
			if _, err := m.Transmit(n, make([]byte, 32)); err != nil {
				t.Error(err)
			}
		})
	}
	eng.Run()

	if len(m.grid.cells) != 1 {
		t.Fatalf("%d cells, want the single unsharded cell", len(m.grid.cells))
	}
	if size := reflect.TypeOf(memoRow{}.mw).Elem().Size(); size != 8 {
		t.Fatalf("memo entry is %d B, want 8", size)
	}
	var rows, entries, filled int
	for _, c := range m.grid.cells {
		for _, set := range c.rows {
			rows += cap(set)
			for _, row := range set {
				if cap(row.mw) > int(c.slots) {
					t.Fatalf("memo row holds %d entries for %d member slots", cap(row.mw), c.slots)
				}
				entries += cap(row.mw)
				for _, mw := range row.mw {
					if !math.IsNaN(mw) {
						filled++
					}
				}
			}
		}
	}
	if filled == 0 {
		t.Fatal("no memo entry filled: the traffic did not overlap")
	}
	header := int(unsafe.Sizeof(memoRow{}))
	bytes := entries*8 + rows*header
	t.Logf("memo: %d rows, %d entries (%d filled), %d B; at 40 B a link the same entries took %d B",
		rows, entries, filled, bytes, entries*40)
	if limit := len(nodes) * (len(nodes)*8 + header); bytes > limit {
		t.Fatalf("memo holds %d B, over %d B (8 B per pair plus a %d B header per row)", bytes, limit, header)
	}
}

// budgetPath returns the field path by which t reaches a phys.Budget,
// or "" when it cannot.
func budgetPath(t reflect.Type, path string, seen map[reflect.Type]bool) string {
	if t == reflect.TypeOf(phys.Budget{}) {
		return path
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	switch t.Kind() {
	case reflect.Pointer, reflect.Slice, reflect.Array:
		return budgetPath(t.Elem(), path+"[]", seen)
	case reflect.Map:
		if p := budgetPath(t.Key(), path+"{key}", seen); p != "" {
			return p
		}
		return budgetPath(t.Elem(), path+"{}", seen)
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if p := budgetPath(f.Type, path+"."+f.Name, seen); p != "" {
				return p
			}
		}
	}
	return ""
}
