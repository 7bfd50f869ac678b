package medium

import (
	"reflect"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// Generated purity scenarios: the medium's caches — power memos,
// candidate sets and the received powers they carry, the PRR memo —
// against the full-scan oracle, on schedules decoded from fuzz bytes.
//
// The deployment is compact: six nodes in a 45 m square, every pair
// well inside the reachability floor at any model tweak the scenario
// makes, and a seventh, the far node, in a 5 m square of its own 50 m
// beyond that square's corner. Some of the far node's links lie under
// the floor (under every model tweak: the one to (40, 30); under some:
// the ones to (40, 0) and (20, 30)), so its frames reach some nodes
// only as interference and its CCA does not hear every frame. Yet it
// stays within a Chebyshev distance of 95 m of every other node, under
// the smallest detectability range the tweaks allow (100 m), so every
// pair lies inside one detectability ring at any cell size.
//
// A frame's candidate set, and its bulk count of nodes under the floor,
// are captured at transmit time; the oracle applies the floor inline at
// delivery. Detach and re-attach keep the bulk count current, so the two
// agree unless the set of nodes over the floor changes while the frame
// is in flight, and the schedule avoids each way that can happen. A node
// attached mid-flight hears the frame from the oracle but not from the
// captured set: only the floater (node 6) ever detaches, and it comes
// back only once every frame sent while it was away has been delivered.
// A move or a model tweak that carries a link from a frame in flight
// across the floor is skipped. The floater may detach while a frame in
// flight counts it under the floor (corpus entry b468bf6615baf81f).
// The floater is attached last, and a re-attach keeps it last, so
// attach order — and with it the order of receptions and random draws —
// is the same both ways.

// Operation kinds: the first byte of each five-byte operation, mod
// opKinds. The other bytes are the operands a, b, c and the delay, in
// units of opDelayUnit, since the previous operation.
const (
	opTransmit = iota // node a at power level 3 + b%29, 1 + c%127 bytes
	opMove            // node a to (b%46, c%46); the far node within its square
	opChannel         // node a to channel 17 + b%2
	opFloat           // detach the floater, or re-attach it when allowed
	opCCA             // sample node a's CCA
	opRetune          // b < 128: model tweak + InvalidateTopology; else SetSharding
	opRadio           // node a's radio to RX (b even) or off
	opKinds
)

const (
	purityNodes = 7
	floaterIdx  = 5
	farIdx      = 6
	opDelayUnit = 50 * time.Microsecond
	maxOps      = 64
)

// purityPositions are the initial positions: five fixed-role nodes, the
// floater, and the far node at the corner of its square.
var purityPositions = [purityNodes]phys.Position{
	{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 30}, {X: 20, Y: 30}, {X: 40, Y: 30},
	{X: -50, Y: -50},
}

// purityRun is what one run of a generated scenario observes.
type purityRun struct {
	deliveries []delivery
	cca        []float64
	stats      Stats
}

// runPurityScenario decodes data into a schedule and runs it on the
// medium or the oracle. data[0] bit 0 shards the medium (20 m cells)
// before the schedule starts; the rest is five-byte operations.
func runPurityScenario(t *testing.T, data []byte, oracle bool) purityRun {
	t.Helper()
	eng, m := newTestMedium()
	energy := useOracle(m, oracle)
	nodes := make([]*fakeNode, purityNodes)
	for i := range nodes {
		p := purityPositions[i]
		nodes[i] = newFake(phys.NodeID(i+1), p.X, p.Y)
	}
	floater, far := nodes[floaterIdx], nodes[farIdx]
	for _, n := range append(nodes[:floaterIdx:floaterIdx], far, floater) {
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	if len(data) > 0 && data[0]&1 != 0 {
		m.SetSharding(Sharding{CellSize: 20})
	}
	var run purityRun
	obs := observe(t, eng, m, nodes...)

	attached := true
	// away is the end of the last frame put on the air while the floater
	// was detached: re-attaching before it would add a receiver to that
	// frame the captured candidate set does not have.
	var away sim.Time
	// flights are the frames put on the air; those still in flight
	// decide whether a move, a model tweak or a detach may run.
	type flight struct {
		from *fakeNode
		pos  phys.Position
		end  sim.Time
	}
	var flights []flight
	// over reports whether frame f reaches node n at pos over the floor.
	over := func(f flight, n *fakeNode, pos phys.Position) bool {
		b := m.model.LinkBudget(f.from.id, n.id, f.pos, pos)
		return b.Received(maxTxDBm) >= radio.SensitivityDBm-FadeMarginDB
	}
	// overFloor lists over for every frame in flight and every other
	// node where it stands.
	overFloor := func() []bool {
		var out []bool
		for _, f := range flights {
			if f.end < eng.Now() {
				continue
			}
			for _, n := range nodes {
				out = append(out, n != f.from && over(f, n, n.pos))
			}
		}
		return out
	}
	at := sim.Time(0)
	for i, ops := 1, 0; i+5 <= len(data) && ops < maxOps; i, ops = i+5, ops+1 {
		kind, a, b, c := data[i]%opKinds, data[i+1], data[i+2], data[i+3]
		at += sim.Time(data[i+4]) * opDelayUnit
		n := nodes[int(a)%purityNodes]
		eng.Schedule(at, func() {
			switch kind {
			case opTransmit:
				if err := n.rad.SetPowerLevel(radio.MinPowerLevel + int(b)%29); err != nil {
					t.Fatal(err)
				}
				airtime, err := m.Transmit(n, make([]byte, 1+int(c)%127))
				if err == nil {
					flights = append(flights, flight{from: n, pos: n.pos, end: eng.Now() + airtime})
					if !attached {
						away = max(away, eng.Now()+airtime)
					}
				}
			case opMove:
				dest := phys.Position{X: float64(b % 46), Y: float64(c % 46)}
				if n == far {
					dest = phys.Position{X: purityPositions[farIdx].X + float64(b%6),
						Y: purityPositions[farIdx].Y + float64(c%6)}
				}
				for _, f := range flights {
					if f.end >= eng.Now() && f.from != n && over(f, n, n.pos) != over(f, n, dest) {
						return // the move would carry a link across the floor
					}
				}
				n.pos = dest
				m.NodeMoved(n.id)
			case opChannel:
				if err := n.rad.SetChannel(17 + int(b)%2); err != nil {
					t.Fatal(err)
				}
			case opFloat:
				if attached {
					m.Detach(floater.id)
					attached = false
				} else if eng.Now() > away {
					if err := m.Attach(floater); err != nil {
						t.Fatal(err)
					}
					attached = true
				}
			case opCCA:
				run.cca = append(run.cca, energy(n))
			case opRetune:
				if b < 128 {
					before, pl0 := overFloor(), m.model.PL0
					m.model.PL0 = 44 + float64(c%5)/2
					if !reflect.DeepEqual(before, overFloor()) {
						m.model.PL0 = pl0 // the tweak would carry a link across the floor
						return
					}
					m.model.NoiseFloor = -96 + float64(c%3)
					m.InvalidateTopology()
				} else {
					m.SetSharding(Sharding{CellSize: float64(15 + c%30)})
				}
			case opRadio:
				st := radio.RX
				if b%2 != 0 {
					st = radio.Off
				}
				n.rad.SetState(st)
			}
		})
	}
	eng.Run()
	run.deliveries = obs.deliveries()
	run.stats = m.Stats()
	return run
}

// op encodes one five-byte operation.
func op(kind, a, b, c, delay byte) []byte { return []byte{kind, a, b, c, delay} }

// scenario concatenates a flags byte and operations.
func scenario(flags byte, ops ...[]byte) []byte {
	out := []byte{flags}
	for _, o := range ops {
		out = append(out, o...)
	}
	return out
}

// FuzzMediumPurity byte-compares the medium against the full-scan
// oracle on generated schedules: transmissions at random power levels,
// power changes between frames still in flight, moves of receivers and
// transmitters mid-flight, the floater detaching and coming back,
// channel and radio-state changes, model tweaks and re-partitions
// mid-flight, and CCA samples throughout. The first seeds each stale a
// candidate set in flight through one of the sites that must mark it:
// a move (invalidateRing), a model tweak (partition), a power change
// (reachFor) and the transmitter's own detach. The last three cross the
// floor: a CCA at a listener under it, interference from a transmitter
// under it, and a power change on a transmitter whose memo row is
// filled.
func FuzzMediumPurity(f *testing.F) {
	for _, flags := range []byte{0, 1} {
		// A receiver moves while a frame to it is in flight.
		f.Add(scenario(flags,
			op(opTransmit, 0, 28, 99, 0),
			op(opMove, 1, 44, 44, 20),
			op(opCCA, 1, 0, 0, 1)))
		// The model changes under an in-flight frame.
		f.Add(scenario(flags,
			op(opTransmit, 0, 28, 126, 0),
			op(opRetune, 0, 0, 4, 20),
			op(opTransmit, 2, 10, 30, 1)))
		// A transmitter changes power between two frames of its own in
		// flight, then a receiver of the first moves.
		f.Add(scenario(flags,
			op(opTransmit, 0, 28, 126, 0),
			op(opTransmit, 0, 12, 9, 10),
			op(opMove, 4, 3, 40, 10)))
		// The floater detaches while its frame is in flight, a receiver
		// of that frame moves, and the floater comes back afterwards.
		f.Add(scenario(flags,
			op(opTransmit, 5, 28, 126, 0),
			op(opFloat, 0, 0, 0, 10),
			op(opMove, 0, 30, 45, 10),
			op(opTransmit, 1, 20, 60, 1),
			op(opFloat, 0, 0, 0, 200),
			op(opTransmit, 5, 28, 20, 1)))
		// Interference, channel and radio changes, a re-partition.
		f.Add(scenario(flags,
			op(opTransmit, 0, 28, 80, 0),
			op(opTransmit, 3, 5, 80, 5),
			op(opChannel, 2, 1, 0, 1),
			op(opRadio, 4, 1, 0, 0),
			op(opTransmit, 2, 28, 40, 5),
			op(opRetune, 0, 200, 7, 5),
			op(opCCA, 1, 0, 0, 1),
			op(opRadio, 4, 0, 0, 40),
			op(opTransmit, 1, 20, 126, 1),
			op(opMove, 1, 45, 0, 10)))
	}
	// Seeds that cross the floor, added after the first ten so those keep
	// their numbers.
	for _, flags := range []byte{0, 1} {
		// The far node listens while the floater, under its floor, is on
		// the air, then again once node 1, over it, transmits too.
		f.Add(scenario(flags,
			op(opTransmit, 5, 28, 126, 0),
			op(opCCA, 6, 0, 0, 1),
			op(opTransmit, 0, 28, 60, 1),
			op(opCCA, 6, 0, 0, 1)))
		// The far node's frame overlaps one to the floater, which it
		// reaches only as interference, twice, so the second delivery
		// reads the memo the first filled.
		f.Add(scenario(flags,
			op(opTransmit, 2, 28, 126, 0),
			op(opTransmit, 6, 28, 100, 2),
			op(opTransmit, 2, 28, 126, 150),
			op(opTransmit, 6, 28, 100, 2)))
		// Node 3's frames are delivered while the far node is on the air,
		// filling its memo row, which the far node's next frame, at a
		// lower power, must reset.
		f.Add(scenario(flags,
			op(opTransmit, 6, 28, 126, 0),
			op(opTransmit, 2, 28, 40, 2),
			op(opTransmit, 6, 4, 126, 100),
			op(opTransmit, 2, 28, 40, 2),
			op(opCCA, 5, 0, 0, 1)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got := runPurityScenario(t, data, false)
		want := runPurityScenario(t, data, true)
		if len(got.deliveries) != len(want.deliveries) {
			t.Fatalf("%d deliveries, oracle %d", len(got.deliveries), len(want.deliveries))
		}
		for i := range got.deliveries {
			if got.deliveries[i] != want.deliveries[i] {
				t.Fatalf("delivery %d differs:\nmedium %+v\noracle %+v", i, got.deliveries[i], want.deliveries[i])
			}
		}
		if !reflect.DeepEqual(got.cca, want.cca) {
			t.Fatalf("CCA samples differ: medium %v, oracle %v", got.cca, want.cca)
		}
		if got.stats != want.stats {
			t.Fatalf("stats differ:\nmedium %+v\noracle %+v", got.stats, want.stats)
		}
	})
}
