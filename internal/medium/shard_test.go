package medium

import (
	"reflect"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// shardPurityScenario replays the indexScenario schedule on a sharded
// medium. The 5×5 grid (span 60 m) fits inside one detectability ring,
// so every quantity the sharded medium computes — candidate sets, bulk
// far counts, interference sums — must be bit-identical to the
// unsharded index.
func shardPurityScenario(t *testing.T, workers int) ([]TapDelivery, float64, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	nodes := make([]*fakeNode, 0, 26)
	for i := 0; i < 25; i++ {
		n := newFake(phys.NodeID(i+1), float64(i%5)*15, float64(i/5)*15)
		nodes = append(nodes, n)
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	far := newFake(26, 10000, 0)
	nodes = append(nodes, far)
	m.Attach(far)
	if err := m.SetSharding(Sharding{Workers: workers}); err != nil {
		t.Fatal(err)
	}

	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })

	var cca float64
	m.Transmit(nodes[0], make([]byte, 16))
	m.Transmit(nodes[12], make([]byte, 16))
	eng.MustSchedule(radio.FrameAirtime(16)/2, func() { cca = m.EnergyDBmAt(nodes[24]) })
	eng.MustSchedule(sim.Time(5_000_000), func() { m.Transmit(nodes[24], make([]byte, 16)) })
	eng.MustSchedule(sim.Time(10_000_000), func() { m.Transmit(nodes[6], make([]byte, 16)) })
	eng.Run()
	return deliveries, cca, m.Stats()
}

// TestShardedMatchesIndexOnCompactTopology: on a deployment that fits
// in one detectability ring the sharded medium is a pure optimization —
// byte-identical deliveries, CCA, and stats against the unsharded
// index, at sequential and concurrent worker budgets alike.
func TestShardedMatchesIndexOnCompactTopology(t *testing.T) {
	dIdx, ccaIdx, sIdx := indexScenario(t, true)
	for _, workers := range []int{1, 4} {
		d, cca, s := shardPurityScenario(t, workers)
		if !reflect.DeepEqual(d, dIdx) {
			t.Fatalf("workers=%d: deliveries diverge from the unsharded index (%d vs %d records)",
				workers, len(d), len(dIdx))
		}
		if cca != ccaIdx {
			t.Fatalf("workers=%d: CCA %v, unsharded index %v", workers, cca, ccaIdx)
		}
		if s != sIdx {
			t.Fatalf("workers=%d: stats %+v, unsharded index %+v", workers, s, sIdx)
		}
	}
}

// shardGridScenario drives a hostile schedule over an 8×8 grid spanning
// several cells: colliding transmissions, a partition fault cutting
// across a cell edge, a jammed region, a receiver migrating cells while
// a frame is in flight (including into virgin ground no cell covers
// yet), and transmissions from the migrated node and from nodes sitting
// in corner cells. Returns every observable the medium produces.
func shardGridScenario(t *testing.T, workers int) ([]TapDelivery, []float64, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	nodes := make([]*fakeNode, 64)
	for i := range nodes {
		n := newFake(phys.NodeID(i+1), float64(i%8)*30, float64(i/8)*30)
		nodes[i] = n
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetSharding(Sharding{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	// A partition across the x≈105 line — right through a cell edge
	// (auto cell size ≈ 108 m) — and a jammer over the top-right cell.
	m.SetFaultHook(func(from, to phys.NodeID, ch int) FaultEffect {
		fx, tx := nodes[from-1].pos.X, nodes[to-1].pos.X
		if (fx < 105) != (tx < 105) {
			return FaultEffect{Drop: true}
		}
		tp := nodes[to-1].pos
		if tp.X > 150 && tp.Y > 150 {
			return FaultEffect{Corrupt: true}
		}
		return FaultEffect{}
	})

	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	var ccas []float64

	air := radio.FrameAirtime(48)
	m.Transmit(nodes[27], make([]byte, 48)) // interior, col 3
	m.Transmit(nodes[36], make([]byte, 48)) // interior, col 4: collides across the partition
	eng.MustSchedule(air/2, func() {
		ccas = append(ccas, m.EnergyDBmAt(nodes[0]), m.EnergyDBmAt(nodes[63]))
		// Receiver migration with the frames still in the air: node 60
		// walks across a cell boundary, node 5 lands exactly on one.
		nodes[59].pos = phys.Position{X: 250, Y: 95}
		m.NodeMoved(60)
		nodes[4].pos = phys.Position{X: 2 * 30, Y: 108} // near the y-edge
		m.NodeMoved(5)
	})
	eng.MustSchedule(sim.Time(5_000_000), func() {
		m.Transmit(nodes[59], make([]byte, 24)) // from the migrated position
		m.Transmit(nodes[4], make([]byte, 24))
	})
	eng.MustSchedule(sim.Time(8_000_000), func() {
		// Into virgin ground: no cell has ever covered (700, 700).
		nodes[62].pos = phys.Position{X: 700, Y: 700}
		m.NodeMoved(63)
		m.Transmit(nodes[62], make([]byte, 16))
	})
	eng.MustSchedule(sim.Time(12_000_000), func() {
		m.Transmit(nodes[0], make([]byte, 48))  // corner cell
		m.Transmit(nodes[63], make([]byte, 48)) // opposite corner
		ccas = append(ccas, m.EnergyDBmAt(nodes[31]))
	})
	eng.Run()
	return deliveries, ccas, m.Stats()
}

// TestShardedWorkerCountInvariance is the determinism contract of
// DESIGN.md §14: the number of concurrent medium workers is a pure
// performance knob — deliveries, CCA samples, and stats are
// byte-identical at every budget, under collisions, faults crossing
// cell edges, and mid-flight cell migrations.
func TestShardedWorkerCountInvariance(t *testing.T) {
	dBase, ccaBase, sBase := shardGridScenario(t, 1)
	if len(dBase) == 0 {
		t.Fatal("scenario produced no deliveries")
	}
	for _, workers := range []int{2, 3, 8} {
		d, cca, s := shardGridScenario(t, workers)
		if len(d) != len(dBase) {
			t.Fatalf("workers=%d: %d deliveries, sequential %d", workers, len(d), len(dBase))
		}
		for i := range d {
			if d[i] != dBase[i] {
				t.Fatalf("workers=%d: delivery %d differs:\n%+v\nsequential:\n%+v",
					workers, i, d[i], dBase[i])
			}
		}
		if !reflect.DeepEqual(cca, ccaBase) {
			t.Fatalf("workers=%d: CCA %v, sequential %v", workers, cca, ccaBase)
		}
		if s != sBase {
			t.Fatalf("workers=%d: stats %+v, sequential %+v", workers, s, sBase)
		}
	}
}

// boundaryScenario puts nodes exactly on cell-boundary coordinates
// (multiples of an explicit 50 m cell size), where floor(x/size) is one
// ULP from flipping cells, and runs a colliding schedule. The span fits
// one ring (ring = 3 at 50 m cells), so the indexed medium is the
// oracle as well as the sequential baseline.
func boundaryScenario(t *testing.T, shard bool, workers int) ([]TapDelivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	var nodes []*fakeNode
	id := phys.NodeID(1)
	for _, x := range []float64{0, 49.999999, 50, 100, 150} {
		for _, y := range []float64{0, 50} {
			n := newFake(id, x, y)
			nodes = append(nodes, n)
			if err := m.Attach(n); err != nil {
				t.Fatal(err)
			}
			id++
		}
	}
	if shard {
		if err := m.SetSharding(Sharding{CellSize: 50, Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	m.Transmit(nodes[4], make([]byte, 32)) // node at exactly (50, 0)
	m.Transmit(nodes[7], make([]byte, 32)) // (100, 50): collision
	eng.MustSchedule(sim.Time(3_000_000), func() { m.Transmit(nodes[0], make([]byte, 32)) })
	eng.Run()
	return deliveries, m.Stats()
}

// TestShardedBoundaryNodes: a node whose coordinate sits exactly on a
// cell boundary belongs to exactly one cell (floor semantics) and its
// transmissions and receptions are byte-identical to the unsharded
// index at every worker count.
func TestShardedBoundaryNodes(t *testing.T) {
	dIdx, sIdx := boundaryScenario(t, false, 1)
	for _, workers := range []int{1, 4} {
		d, s := boundaryScenario(t, true, workers)
		if !reflect.DeepEqual(d, dIdx) {
			t.Fatalf("workers=%d: boundary-node deliveries diverge from the index", workers)
		}
		if s != sIdx {
			t.Fatalf("workers=%d: stats %+v, index %+v", workers, s, sIdx)
		}
	}
}

// migrationScenario has a receiver walk across a cell boundary — or
// into virgin ground — while a frame addressed to it is in flight, then
// transmit from its new position. Small enough to stay inside one ring,
// so the unsharded index is the oracle.
func migrationScenario(t *testing.T, shard bool, workers int, dest phys.Position) ([]TapDelivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	a, b, c := newFake(1, 0, 0), newFake(2, 100, 0), newFake(3, 60, 30)
	for _, n := range []*fakeNode{a, b, c} {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if shard {
		if err := m.SetSharding(Sharding{Workers: workers}); err != nil {
			t.Fatal(err)
		}
	}
	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	m.Transmit(a, make([]byte, 100)) // long frame: 3.4 ms in the air
	eng.MustSchedule(radio.FrameAirtime(100)/2, func() {
		b.pos = dest
		m.NodeMoved(2)
	})
	eng.MustSchedule(sim.Time(5_000_000), func() { m.Transmit(b, make([]byte, 32)) })
	eng.Run()
	return deliveries, m.Stats()
}

// TestShardedReceiverMigratesMidFlight covers both migration shapes: a
// hop to an adjacent cell, and a hop into a cell that never existed
// (whose ledger must be rebuilt from the active list so the in-flight
// frame still reaches the migrated receiver's assessment).
func TestShardedReceiverMigratesMidFlight(t *testing.T) {
	for name, dest := range map[string]phys.Position{
		"adjacent-cell": {X: 215, Y: 0},
		"virgin-ground": {X: 500, Y: 500},
	} {
		dIdx, sIdx := migrationScenario(t, false, 1, dest)
		for _, workers := range []int{1, 4} {
			d, s := migrationScenario(t, true, workers, dest)
			if !reflect.DeepEqual(d, dIdx) {
				t.Fatalf("%s workers=%d: deliveries diverge from the index:\nsharded %+v\nindex   %+v",
					name, workers, d, dIdx)
			}
			if s != sIdx {
				t.Fatalf("%s workers=%d: stats %+v, index %+v", name, workers, s, sIdx)
			}
		}
	}
}

// movingTxScenario is the walking-workstation regression: the
// workstation transmits, walks away while its frame is still in the
// air, and transmits again from the new spot. The delivery of the
// in-flight frame is computed against the captured position — and
// before the txBudget fix it poisoned the (from,to) budget cache with
// that stale-position value, so the post-move transmission reused a
// budget from a spot the workstation had already left.
func movingTxScenario(t *testing.T, indexed bool) ([]TapDelivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	m.SetReachabilityIndex(indexed)
	a, b := newFake(1, 0, 0), newFake(2, 20, 0)
	m.Attach(a)
	m.Attach(b)
	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	m.Transmit(a, make([]byte, 64))
	eng.MustSchedule(radio.FrameAirtime(64)/2, func() {
		a.pos = phys.Position{X: 100000, Y: 0} // walks out of range mid-flight
		m.NodeMoved(1)
	})
	eng.MustSchedule(sim.Time(5_000_000), func() { m.Transmit(a, make([]byte, 64)) })
	eng.Run()
	return deliveries, m.Stats()
}

// TestMovedTransmitterMidFlightPurity byte-compares the indexed and
// legacy fan-outs across a mid-flight move of the transmitter: the
// in-flight frame must deliver from the captured position, and the
// post-move frame must see the new position — in both modes.
func TestMovedTransmitterMidFlightPurity(t *testing.T) {
	dOn, sOn := movingTxScenario(t, true)
	dOff, sOff := movingTxScenario(t, false)
	if !reflect.DeepEqual(dOn, dOff) {
		t.Fatalf("indexed and legacy fan-outs diverge across a mid-flight move:\nindexed %+v\nlegacy  %+v", dOn, dOff)
	}
	if sOn != sOff {
		t.Fatalf("stats diverge: indexed %+v legacy %+v", sOn, sOff)
	}
	// The in-flight frame (captured 20 m away) must have been delivered;
	// the post-move frame (100 km away) must not have been.
	var first, second bool
	for _, d := range dOn {
		if d.TxSeq == 1 && d.Outcome == OutcomeDelivered {
			first = true
		}
		if d.TxSeq == 2 && d.Outcome == OutcomeDelivered {
			second = true
		}
	}
	if !first {
		t.Fatal("in-flight frame was not delivered from its captured position")
	}
	if second {
		t.Fatal("post-move frame delivered across 100 km: stale budget cache")
	}
}

// TestShardingRequiresIndex pins the API contract: sharding is the
// reachability index taken spatial, and disabling the index drops it.
func TestShardingRequiresIndex(t *testing.T) {
	_, m := newTestMedium()
	m.SetReachabilityIndex(false)
	if err := m.SetSharding(Sharding{}); err == nil {
		t.Fatal("SetSharding accepted with the index disabled")
	}
	m.SetReachabilityIndex(true)
	if err := m.SetSharding(Sharding{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	if !m.Sharded() {
		t.Fatal("Sharded() = false after SetSharding")
	}
	if cells, size, ring := m.ShardInfo(); size <= 0 || ring < 1 || cells != 0 {
		t.Fatalf("ShardInfo = (%d, %f, %d) on an empty sharded medium", cells, size, ring)
	}
	m.SetReachabilityIndex(false)
	if m.Sharded() {
		t.Fatal("sharding survived disabling the index")
	}
}

// scaleScenario attaches a side×side grid (14 m spacing — the lvbench
// scale geometry) and fires staggered transmissions from transmitters
// scattered across it, returning every delivery outcome and the stats.
func scaleScenario(t *testing.T, side, workers int) ([]TapDelivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	nodes := make([]*fakeNode, side*side)
	for i := range nodes {
		n := newFake(phys.NodeID(i+1), float64(i%side)*14, float64(i/side)*14)
		nodes[i] = n
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.SetSharding(Sharding{Workers: workers}); err != nil {
		t.Fatal(err)
	}
	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })
	for k := 0; k < 25; k++ {
		n := nodes[(k*(side*side/25)+side/2)%len(nodes)]
		delay := sim.Time(k) * 200_000 // 200 µs apart: plenty of overlap
		eng.MustSchedule(delay, func() { m.Transmit(n, make([]byte, 32)) })
	}
	eng.Run()
	return deliveries, m.Stats()
}

// TestShardedScaleWorkerInvariance byte-compares a many-cell
// deployment at the lvbench scale geometry across worker counts; the
// CI race job runs it with -race to catch any assessment-phase sharing
// the per-cell ownership argument missed. -short trims the grid.
func TestShardedScaleWorkerInvariance(t *testing.T) {
	side := 100 // 10,000 nodes, the scale scenario's geometry
	if testing.Short() {
		side = 45
	}
	dBase, sBase := scaleScenario(t, side, 1)
	if len(dBase) == 0 {
		t.Fatal("scale scenario produced no deliveries")
	}
	d, s := scaleScenario(t, side, 4)
	if len(d) != len(dBase) {
		t.Fatalf("workers=4: %d deliveries, sequential %d", len(d), len(dBase))
	}
	for i := range d {
		if d[i] != dBase[i] {
			t.Fatalf("workers=4: delivery %d differs:\n%+v\nsequential:\n%+v", i, d[i], dBase[i])
		}
	}
	if s != sBase {
		t.Fatalf("workers=4: stats %+v, sequential %+v", s, sBase)
	}
}
