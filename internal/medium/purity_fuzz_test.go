package medium

import (
	"reflect"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
)

// Generated purity scenarios: the medium's caches — link tables,
// candidate sets and the received powers they carry, the PRR memo —
// against the full-scan oracle, on schedules decoded from fuzz bytes.
//
// The deployment is compact: six nodes in a 45 m square, every pair
// well inside the reachability floor at any model tweak the scenario
// makes, and inside one detectability ring at any cell size. There the
// candidate set captured at transmit time is exactly the set the oracle
// filters inline at delivery, with one exception the schedule avoids: a
// node attached while a frame is in flight hears it from the oracle but
// not from the captured set. Only the floater (node 6, attached last)
// ever detaches, and it comes back only once every frame sent while it
// was away has been delivered, so attach order — and with it the order
// of receptions and random draws — is the same both ways.

// Operation kinds: the first byte of each five-byte operation, mod
// opKinds. The other bytes are the operands a, b, c and the delay, in
// units of opDelayUnit, since the previous operation.
const (
	opTransmit = iota // node a at power level 3 + b%29, 1 + c%127 bytes
	opMove            // node a to (b%46, c%46)
	opChannel         // node a to channel 17 + b%2
	opFloat           // detach the floater, or re-attach it when allowed
	opCCA             // sample node a's CCA
	opRetune          // b < 128: model tweak + InvalidateTopology; else SetSharding
	opRadio           // node a's radio to RX (b even) or off
	opKinds
)

const (
	purityNodes = 6
	opDelayUnit = 50 * time.Microsecond
	maxOps      = 64
)

// purityPositions are the initial positions; the floater is last.
var purityPositions = [purityNodes]phys.Position{
	{X: 0, Y: 0}, {X: 20, Y: 0}, {X: 40, Y: 0}, {X: 0, Y: 30}, {X: 20, Y: 30}, {X: 40, Y: 30},
}

// purityRun is what one run of a generated scenario observes.
type purityRun struct {
	deliveries []TapDelivery
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
		if err := m.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	floater := nodes[purityNodes-1]
	if len(data) > 0 && data[0]&1 != 0 {
		m.SetSharding(Sharding{CellSize: 20})
	}
	var run purityRun
	m.SetDeliveryTap(func(td TapDelivery) { run.deliveries = append(run.deliveries, td) })

	attached := true
	// away is the end of the last frame put on the air while the floater
	// was detached: re-attaching before it would add a receiver to that
	// frame the captured candidate set does not have.
	var away sim.Time
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
				if err == nil && !attached {
					away = max(away, eng.Now()+airtime)
				}
			case opMove:
				n.pos = phys.Position{X: float64(b % 46), Y: float64(c % 46)}
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
					m.model.PL0 = 44 + float64(c%5)/2
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
// mid-flight, and CCA samples throughout. The seeds each stale a
// candidate set in flight through one of the sites that must mark it:
// a move (invalidateRing), a model tweak (partition), a power change
// (reachFor) and the transmitter's own detach.
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
