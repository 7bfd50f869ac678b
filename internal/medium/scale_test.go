package medium

import (
	"reflect"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// TestPruneRetainsOverlappingInterferers is the regression for the prune
// horizon bug: deliveries run at the *end* of the receiving frame, so an
// interferer that clipped the start of a long frame must stay in
// m.active until that frame delivers — however long ago the interferer
// ended. The old rule dropped anything ended more than 10 byte-times
// before now, so a transmit (which prunes) late in a long frame's
// airtime silently erased the collision.
func TestPruneRetainsOverlappingInterferers(t *testing.T) {
	eng, m := newTestMedium()
	a := newFake(1, 0, 0)
	b := newFake(2, 20, 0)
	c := newFake(3, 10, 0) // equidistant from a and b: SINR ≈ 0 dB
	d := newFake(4, 10, 1)
	d.channel = 18 // prune trigger only; no co-channel interference
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	m.Attach(d)

	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })

	// Long frame from a (airtime 3.392 ms) overlapped at its start by a
	// short frame from b (airtime 224 µs).
	m.Transmit(a, make([]byte, 100))
	m.Transmit(b, []byte{1})
	// 2 ms in — more than 10 byte-times after b's frame ended, but well
	// before a's frame delivers — another transmit runs prune.
	eng.Schedule(sim.Time(2_000_000), func() { m.Transmit(d, []byte{2}) })
	eng.Run()

	for _, td := range deliveries {
		if td.From == 1 && td.To == 3 {
			if td.Outcome != OutcomeCorrupted || td.Cause != "capture" {
				t.Fatalf("long frame outcome = %v (cause %q), want corrupted by capture: pruned interferer excluded from SINR", td.Outcome, td.Cause)
			}
			return
		}
	}
	t.Fatal("no delivery outcome recorded for the long frame")
}

// TestPruneDropsNonOverlapping checks prune still reclaims transmissions
// once nothing in flight can overlap them.
func TestPruneDropsNonOverlapping(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1})
	eng.Run()
	// Long after the first frame delivered, a new transmit must prune it.
	eng.Schedule(sim.Time(10_000_000), func() { m.Transmit(a, []byte{2}) })
	eng.Run()
	if len(m.active) != 1 {
		t.Fatalf("active = %d transmissions, want 1 (old frame pruned)", len(m.active))
	}
}

// TestRadioOffNotCountedAsLinkLoss is the regression for the LPL metrics
// bug: a duty-cycled radio that sleeps through a frame is a schedule
// property, not link quality, and must not inflate link.*.lost.
func TestRadioOffNotCountedAsLinkLoss(t *testing.T) {
	eng, m := newTestMedium()
	rec := telemetry.NewRecorder(eng)
	rec.Start()
	m.SetTelemetry(rec)
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)

	// Sleeping receiver: no delivery, and crucially no link loss.
	b.state = radio.Off
	m.Transmit(a, []byte{1, 2})
	eng.Run()
	snap := rec.Metrics().Snapshot()
	if snap["link.1-2.lost"] != 0 {
		t.Fatalf("link.1-2.lost = %v after radio-off miss, want 0", snap["link.1-2.lost"])
	}
	if m.Stats().MissedNotListening != 1 {
		t.Fatalf("MissedNotListening = %d", m.Stats().MissedNotListening)
	}

	// Awake receiver: clean delivery counts as delivered.
	b.state = radio.RX
	m.Transmit(a, []byte{1, 2})
	eng.Run()
	snap = rec.Metrics().Snapshot()
	if snap["link.1-2.delivered"] != 1 {
		t.Fatalf("link.1-2.delivered = %v, want 1", snap["link.1-2.delivered"])
	}

	// A real loss (injected corruption) does count.
	m.SetLossFunc(func(from, to phys.NodeID, frame []byte) bool { return true })
	m.Transmit(a, []byte{1, 2})
	eng.Run()
	snap = rec.Metrics().Snapshot()
	if snap["link.1-2.lost"] != 1 {
		t.Fatalf("link.1-2.lost = %v after injected loss, want 1", snap["link.1-2.lost"])
	}
}

// detachScenario runs one 32-byte broadcast from node 1 over a fixed
// 4-node topology, optionally detaching a node mid-airtime, and returns
// node 3's receptions.
func detachScenario(t *testing.T, detach phys.NodeID) []RxInfo {
	t.Helper()
	eng, m := newTestMedium()
	a := newFake(1, 0, 0)
	b := newFake(2, 20, 0)
	c := newFake(3, 10, 0)
	x := newFake(4, 30, 0)
	m.Attach(a)
	m.Attach(b)
	m.Attach(c)
	m.Attach(x)
	if _, err := m.Transmit(a, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if detach != 0 {
		eng.Schedule(radio.FrameAirtime(32)/2, func() { m.Detach(detach) })
	}
	eng.Run()
	return c.frames
}

// TestDetachMidFlight audits the Detach-during-overlapping-transmission
// path (crash fault + detach): no panic, and the outcomes of receivers
// that stay attached are bit-identical whether a bystander receiver or
// even the transmitter itself detaches mid-airtime.
func TestDetachMidFlight(t *testing.T) {
	base := detachScenario(t, 0)
	if len(base) != 1 {
		t.Fatalf("baseline receptions = %d, want 1", len(base))
	}
	if got := detachScenario(t, 4); !reflect.DeepEqual(got, base) {
		t.Fatalf("detaching a bystander changed receptions: %+v vs %+v", got, base)
	}
	if got := detachScenario(t, 1); !reflect.DeepEqual(got, base) {
		t.Fatalf("detaching the transmitter mid-flight changed receptions: %+v vs %+v", got, base)
	}
}

// indexScenario drives a fixed multi-transmitter schedule over a 5×5
// grid (plus one unreachable outlier) and returns the full per-receiver
// outcome sequence, a mid-airtime CCA sample, and the final stats, from
// the production medium or the full-scan oracle.
func indexScenario(t *testing.T, oracle bool) ([]TapDelivery, float64, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	energy := useOracle(m, oracle)
	nodes := make([]*fakeNode, 0, 26)
	for i := 0; i < 25; i++ {
		n := newFake(phys.NodeID(i+1), float64(i%5)*15, float64(i/5)*15)
		nodes = append(nodes, n)
		if err := m.Attach(n); err != nil {
			t.Fatal(err)
		}
	}
	far := newFake(26, 10000, 0) // excluded by the reachability floor
	nodes = append(nodes, far)
	m.Attach(far)

	var deliveries []TapDelivery
	m.SetDeliveryTap(func(td TapDelivery) { deliveries = append(deliveries, td) })

	var cca float64
	m.Transmit(nodes[0], make([]byte, 16))
	m.Transmit(nodes[12], make([]byte, 16)) // collides with node 1's frame
	eng.Schedule(radio.FrameAirtime(16)/2, func() { cca = energy(nodes[24]) })
	eng.Schedule(sim.Time(5_000_000), func() { m.Transmit(nodes[24], make([]byte, 16)) })
	eng.Schedule(sim.Time(10_000_000), func() { m.Transmit(nodes[6], make([]byte, 16)) })
	eng.Run()
	return deliveries, cca, m.Stats()
}

// TestReachabilityIndexIsPureOptimization checks the candidate sets,
// link tables and ledgers change nothing observable: same seed, same
// schedule, byte-identical outcome sequence, CCA reading, and stats
// against the full-scan oracle.
func TestReachabilityIndexIsPureOptimization(t *testing.T) {
	dOn, ccaOn, sOn := indexScenario(t, false)
	dOff, ccaOff, sOff := indexScenario(t, true)
	if len(dOn) == 0 {
		t.Fatal("scenario produced no deliveries")
	}
	if !reflect.DeepEqual(dOn, dOff) {
		if len(dOn) != len(dOff) {
			t.Fatalf("delivery counts differ: medium %d vs oracle %d", len(dOn), len(dOff))
		}
		for i := range dOn {
			if dOn[i] != dOff[i] {
				t.Fatalf("delivery %d differs:\nmedium %+v\noracle %+v", i, dOn[i], dOff[i])
			}
		}
	}
	if ccaOn != ccaOff {
		t.Fatalf("CCA reading differs: medium %v vs oracle %v", ccaOn, ccaOff)
	}
	if sOn != sOff {
		t.Fatalf("stats differ:\nmedium %+v\noracle %+v", sOn, sOff)
	}
	// The outlier at 10 km must have been bulk-counted, never reported.
	for _, td := range dOn {
		if td.To == 26 || td.From == 26 {
			t.Fatalf("unreachable outlier appeared in outcomes: %+v", td)
		}
	}
	if sOn.BelowSensitivity == 0 {
		t.Fatal("outlier was not counted below sensitivity")
	}
}

// TestNodeMovedInvalidates checks that the walking-workstation path
// (MAC.SetPosition → Medium.NodeMoved) refreshes cached budgets and
// candidate sets for the moved node.
func TestNodeMovedInvalidates(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 100000, 0) // out of range
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1}) // builds a's candidate set without b
	eng.Run()
	if len(b.frames) != 0 {
		t.Fatal("out-of-range frame delivered")
	}
	// The operator walks next to a; both directions must now work.
	b.pos = phys.Position{X: 5, Y: 0}
	m.NodeMoved(2)
	m.Transmit(a, []byte{2})
	m.Transmit(b, []byte{3})
	eng.Run()
	if len(b.frames) != 1 || len(a.frames) != 1 {
		t.Fatalf("post-move deliveries: a=%d b=%d, want 1 and 1", len(a.frames), len(b.frames))
	}
}

// TestInvalidateTopology checks that moving a node takes effect once the
// caches are invalidated.
func TestInvalidateTopology(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	m.Transmit(a, []byte{1})
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatal("close-range frame not delivered")
	}
	// Teleport b out of range; without invalidation the cached gain and
	// candidate set would still deliver.
	b.pos = phys.Position{X: 100000, Y: 0}
	m.InvalidateTopology()
	m.Transmit(a, []byte{2})
	eng.Run()
	if len(b.frames) != 1 {
		t.Fatal("stale gain cache delivered to a moved node")
	}
}
