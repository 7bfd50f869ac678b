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
// single-cell medium.
func shardPurityScenario(t *testing.T) ([]delivery, float64, Stats) {
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
	m.SetSharding(Sharding{})

	obs := observe(t, eng, m, nodes...)

	var cca float64
	m.Transmit(nodes[0], make([]byte, 16))
	m.Transmit(nodes[12], make([]byte, 16))
	eng.Schedule(radio.FrameAirtime(16)/2, func() { cca = m.EnergyDBmAt(nodes[24]) })
	eng.Schedule(sim.Time(5_000_000), func() { m.Transmit(nodes[24], make([]byte, 16)) })
	eng.Schedule(sim.Time(10_000_000), func() { m.Transmit(nodes[6], make([]byte, 16)) })
	eng.Run()
	return obs.deliveries(), cca, m.Stats()
}

// TestShardedMatchesIndexOnCompactTopology: on a deployment that fits
// in one detectability ring the sharded medium is a pure optimization —
// byte-identical deliveries, CCA, and stats against the single cell.
func TestShardedMatchesIndexOnCompactTopology(t *testing.T) {
	dIdx, ccaIdx, sIdx := indexScenario(t, false)
	d, cca, s := shardPurityScenario(t)
	if !reflect.DeepEqual(d, dIdx) {
		t.Fatalf("deliveries diverge from the single cell (%d vs %d records)", len(d), len(dIdx))
	}
	if cca != ccaIdx {
		t.Fatalf("CCA %v, single cell %v", cca, ccaIdx)
	}
	if s != sIdx {
		t.Fatalf("stats %+v, single cell %+v", s, sIdx)
	}
}

// boundaryScenario puts nodes exactly on cell-boundary coordinates
// (multiples of an explicit 50 m cell size), where floor(x/size) is one
// ULP from flipping cells, and runs a colliding schedule. The span fits
// one ring (ring = 3 at 50 m cells), so the single cell is the oracle.
func boundaryScenario(t *testing.T, shard bool) ([]delivery, Stats) {
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
		m.SetSharding(Sharding{CellSize: 50})
	}
	obs := observe(t, eng, m, nodes...)
	m.Transmit(nodes[4], make([]byte, 32)) // node at exactly (50, 0)
	m.Transmit(nodes[7], make([]byte, 32)) // (100, 50): collision
	eng.Schedule(sim.Time(3_000_000), func() { m.Transmit(nodes[0], make([]byte, 32)) })
	eng.Run()
	return obs.deliveries(), m.Stats()
}

// TestShardedBoundaryNodes: a node whose coordinate sits exactly on a
// cell boundary belongs to exactly one cell (floor semantics) and its
// transmissions and receptions are byte-identical to the single cell.
func TestShardedBoundaryNodes(t *testing.T) {
	dIdx, sIdx := boundaryScenario(t, false)
	d, s := boundaryScenario(t, true)
	if !reflect.DeepEqual(d, dIdx) {
		t.Fatal("boundary-node deliveries diverge from the single cell")
	}
	if s != sIdx {
		t.Fatalf("stats %+v, single cell %+v", s, sIdx)
	}
}

// migrationScenario has a receiver walk across a cell boundary — or
// into virgin ground — while a frame addressed to it is in flight, then
// transmit from its new position. Small enough to stay inside one ring,
// so the single cell is the oracle. Last, x transmits a frame that w
// and, after the adjacent-cell hop, the migrated b both hear from
// different cells: w was attached after b, so the merged candidate set
// only keeps the single cell's order if b kept its attach sequence
// across the migration.
func migrationScenario(t *testing.T, shard bool, dest phys.Position) ([]delivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	a, b, c := newFake(1, 0, 0), newFake(2, 100, 0), newFake(3, 60, 30)
	w, x := newFake(4, 235, 0), newFake(5, 225, 10)
	for _, n := range []*fakeNode{a, b, c, w, x} {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if shard {
		m.SetSharding(Sharding{})
	}
	obs := observe(t, eng, m, a, b, c, w, x)
	m.Transmit(a, make([]byte, 100)) // long frame: 3.4 ms in the air
	eng.Schedule(radio.FrameAirtime(100)/2, func() {
		b.pos = dest
		m.NodeMoved(2)
	})
	eng.Schedule(sim.Time(5_000_000), func() { m.Transmit(b, make([]byte, 32)) })
	eng.Schedule(sim.Time(10_000_000), func() { m.Transmit(x, make([]byte, 32)) })
	eng.Run()
	return obs.deliveries(), m.Stats()
}

// TestShardedReceiverMigratesMidFlight covers both migration shapes: a
// hop to an adjacent cell, and a hop into a cell that never existed
// (whose ledger must be rebuilt from the active list so the in-flight
// frame still reaches the migrated receiver's SINR scan). After the
// adjacent hop, x's frame must reach b and w in the single cell's
// order.
func TestShardedReceiverMigratesMidFlight(t *testing.T) {
	for name, dest := range map[string]phys.Position{
		"adjacent-cell": {X: 215, Y: 0},
		"virgin-ground": {X: 500, Y: 500},
	} {
		dIdx, sIdx := migrationScenario(t, false, dest)
		d, s := migrationScenario(t, true, dest)
		if !reflect.DeepEqual(d, dIdx) {
			t.Fatalf("%s: deliveries diverge from the single cell:\nsharded %+v\nsingle  %+v",
				name, d, dIdx)
		}
		if s != sIdx {
			t.Fatalf("%s: stats %+v, single cell %+v", name, s, sIdx)
		}
		if name != "adjacent-cell" {
			continue
		}
		var heard []phys.NodeID
		for _, td := range d {
			if td.From == 5 && td.Outcome == outcomeDelivered {
				heard = append(heard, td.To)
			}
		}
		if !reflect.DeepEqual(heard, []phys.NodeID{2, 4}) {
			t.Fatalf("%s: x's frame delivered to %v, want [2 4] in attach order", name, heard)
		}
	}
}

// movingTxScenario is the walking-workstation regression: the
// workstation transmits, walks away while its frame is still in the
// air, and transmits again from the new spot. The delivery of the
// in-flight frame is computed against the captured position — and
// before the cache learned to bypass a moved transmitter it poisoned
// the (from,to) entry with that stale-position value, so the post-move
// transmission reused a budget from a spot the workstation had already
// left.
func movingTxScenario(t *testing.T, oracle bool) ([]delivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	useOracle(m, oracle)
	a, b := newFake(1, 0, 0), newFake(2, 20, 0)
	m.Attach(a)
	m.Attach(b)
	obs := observe(t, eng, m, a, b)
	m.Transmit(a, make([]byte, 64))
	eng.Schedule(radio.FrameAirtime(64)/2, func() {
		a.pos = phys.Position{X: 100000, Y: 0} // walks out of range mid-flight
		m.NodeMoved(1)
	})
	eng.Schedule(sim.Time(5_000_000), func() { m.Transmit(a, make([]byte, 64)) })
	eng.Run()
	return obs.deliveries(), m.Stats()
}

// TestMovedTransmitterMidFlightPurity byte-compares the medium against
// the full-scan oracle across a mid-flight move of the transmitter: the
// in-flight frame must deliver from the captured position, and the
// post-move frame must see the new position.
func TestMovedTransmitterMidFlightPurity(t *testing.T) {
	dOn, sOn := movingTxScenario(t, false)
	dOff, sOff := movingTxScenario(t, true)
	if !reflect.DeepEqual(dOn, dOff) {
		t.Fatalf("medium and oracle diverge across a mid-flight move:\nmedium %+v\noracle %+v", dOn, dOff)
	}
	if sOn != sOff {
		t.Fatalf("stats diverge: medium %+v oracle %+v", sOn, sOff)
	}
	// The in-flight frame (captured 20 m away) must have been delivered;
	// the post-move frame (100 km away) must not have been.
	var first, second bool
	for _, d := range dOn {
		if d.TxSeq == 1 && d.Outcome == outcomeDelivered {
			first = true
		}
		if d.TxSeq == 2 && d.Outcome == outcomeDelivered {
			second = true
		}
	}
	if !first {
		t.Fatal("in-flight frame was not delivered from its captured position")
	}
	if second {
		t.Fatal("post-move frame delivered across 100 km: stale cached link")
	}
}

// TestShardedFarFieldBound bounds the one modelled difference of a
// multi-cell medium: a delivery's SINR leaves out transmitters whose
// origin cell is beyond the receiver's ring. It drives overlapping
// traffic over a 40×40 grid (14 m spacing, the scale geometry: 6×6
// cells of 108 m) and, for every demodulated delivery, recomputes the
// SINR from the model twice — over the in-ring interferers, which must
// reproduce the reported SINR exactly, and over every overlapping
// transmitter. Each out-of-ring signal is under SensitivityDBm −
// FadeMarginDB by the ring bound (phys.Model.DetectRange, MaxGaussDB),
// and the interference-plus-noise level is at least the noise floor, so
// k such signals lower the SINR by at most
// 10·log10(1 + k·mW(SensitivityDBm − FadeMarginDB)/mW(NoiseFloor)).
func TestShardedFarFieldBound(t *testing.T) {
	const side = 40
	eng, m := newTestMedium()
	nodes := make([]*fakeNode, side*side)
	for i := range nodes {
		nodes[i] = newFake(phys.NodeID(i+1), float64(i%side)*14, float64(i/side)*14)
		if err := m.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	m.SetSharding(Sharding{})
	obs := observe(t, eng, m, nodes...)
	for k := 0; k < 80; k++ {
		n := nodes[(k*379+side/2)%len(nodes)]
		eng.Schedule(sim.Time(k)*50_000, func() { m.Transmit(n, make([]byte, 32)) })
	}
	eng.Run()
	txs, deliveries := obs.sent(), obs.deliveries()

	floorDBm := radio.SensitivityDBm - FadeMarginDB
	noiseMW := dbmToMW(m.model.NoiseFloor)
	pos := func(id phys.NodeID) phys.Position { return nodes[id-1].pos }
	received := func(o sentFrame, to phys.NodeID) float64 {
		return m.model.LinkBudget(o.From, to, pos(o.From), pos(to)).Received(o.TxDBm)
	}
	worst, worstK, affected := 0.0, 0, 0
	for _, d := range deliveries {
		if d.Outcome != outcomeDelivered && d.Outcome != outcomeCorrupted {
			continue
		}
		tx := txs[d.TxSeq]
		rxCell := m.keyFor(pos(d.To))
		inMW, outMW, k := 0.0, 0.0, 0
		for seq := uint64(1); seq <= uint64(len(txs)); seq++ {
			o := txs[seq]
			if seq == d.TxSeq || o.Channel != tx.Channel || o.From == d.To ||
				o.Start >= tx.End || o.End <= tx.Start {
				continue
			}
			p := received(o, d.To)
			oc := m.keyFor(pos(o.From))
			if chebyshev(oc.cx-rxCell.cx, oc.cy-rxCell.cy) <= m.grid.ring {
				inMW += dbmToMW(p)
				continue
			}
			if p > floorDBm {
				t.Fatalf("out-of-ring signal %d→%d at %.2f dBm, above the %.0f dBm floor", o.From, d.To, p, floorDBm)
			}
			outMW += dbmToMW(p)
			k++
		}
		if sinr := d.Info.RxPowerDBm - mwToDBm(noiseMW+inMW); sinr != d.Info.SNRDB {
			t.Fatalf("delivery %d→%d: in-ring SINR %v, medium reported %v", d.From, d.To, sinr, d.Info.SNRDB)
		}
		if k == 0 {
			continue
		}
		affected++
		diff := mwToDBm(noiseMW+inMW+outMW) - mwToDBm(noiseMW+inMW)
		bound := mwToDBm(1 + float64(k)*dbmToMW(floorDBm)/noiseMW)
		if diff < 0 || diff > bound {
			t.Fatalf("delivery %d→%d: far field moves SINR by %.4f dB, bound %.4f dB for %d transmitters",
				d.From, d.To, diff, bound, k)
		}
		if diff > worst {
			worst, worstK = diff, k
		}
	}
	if affected == 0 {
		t.Fatal("no delivery overlapped an out-of-ring transmitter: the scenario tests nothing")
	}
	t.Logf("%d of %d deliveries overlapped out-of-ring transmitters; worst SINR difference %.4f dB (k=%d, bound %.4f dB)",
		affected, len(deliveries), worst, worstK, mwToDBm(1+float64(worstK)*dbmToMW(floorDBm)/noiseMW))
}
