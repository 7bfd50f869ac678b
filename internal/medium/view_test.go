package medium

import (
	"testing"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

// hookNode is a fakeNode that runs hook after each reception, so a test
// can change the medium from inside a delivery.
type hookNode struct {
	*fakeNode
	hook func(info RxInfo)
}

func (h *hookNode) OnFrame(frame []byte, info RxInfo) {
	h.fakeNode.OnFrame(frame, info)
	if h.hook != nil {
		h.hook(info)
	}
}

// Mid-delivery changes a viewScenario can make from node 2's OnFrame,
// the first time it receives node 1's long frame.
const (
	viewQuiet  = iota // no change
	viewMove          // move node 7, an interferer's transmitter
	viewDetach        // detach node 8, an interferer's transmitter
)

// viewScenario drives traffic that exercises each frame's interferer
// view, on the medium or the full-scan oracle. Eight nodes stand within
// 20 m of one another, in attach order alternately left and right of
// x = 10, so that with 10 m cells consecutive candidates of a frame live
// in different receiver cells. Each of two rounds puts a long frame from
// node 1 on the air and, inside its airtime, two frames from node 7 at
// two power levels and one from node 8, so every interfered scan of the
// long frame sees one transmitter's memo row retagged by its second
// frame. The second round reads memo entries the first filled. Node 8
// is attached last, so the oracle's walk of the attach order survives
// its detach (the vacated tail entry is node 1, the transmitter).
func viewScenario(t *testing.T, oracle, shard bool, change int) ([]delivery, Stats) {
	t.Helper()
	eng, m := newTestMedium()
	useOracle(m, oracle)
	pos := []phys.Position{{X: 2, Y: 0}, {X: 14, Y: 4}, {X: 6, Y: 12}, {X: 17, Y: 15},
		{X: 3, Y: 19}, {X: 12, Y: 8}, {X: 8, Y: 3}, {X: 19, Y: 0}}
	nodes := make([]*hookNode, len(pos))
	for i, p := range pos {
		nodes[i] = &hookNode{fakeNode: newFake(phys.NodeID(i+1), p.X, p.Y)}
		if err := m.Attach(nodes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if shard {
		m.SetSharding(Sharding{CellSize: 10})
		if len(m.grid.cells) < 4 {
			t.Fatalf("%d cells, want the four the layout spans", len(m.grid.cells))
		}
	}
	fakes := make([]*fakeNode, len(nodes))
	for i, n := range nodes {
		fakes[i] = n.fakeNode
	}
	obs := observe(t, eng, m, fakes...)

	fired := false
	nodes[1].hook = func(info RxInfo) {
		if fired || info.From != 1 {
			return
		}
		fired = true
		switch change {
		case viewMove:
			nodes[6].pos = phys.Position{X: 11, Y: 6}
			m.NodeMoved(7)
		case viewDetach:
			m.Detach(8)
		}
	}
	send := func(n *hookNode, level, size int) {
		if err := n.rad.SetPowerLevel(level); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Transmit(n, make([]byte, size)); err != nil {
			t.Fatal(err)
		}
	}
	for round := sim.Time(0); round < 2; round++ {
		base := round * 20_000_000
		eng.Schedule(base, func() {
			if round == 1 && change == viewDetach {
				if err := m.Attach(nodes[7]); err != nil {
					t.Fatal(err)
				}
			}
			send(nodes[0], 31, 120)
		})
		eng.Schedule(base+200_000, func() { send(nodes[6], 31, 20) })
		eng.Schedule(base+300_000, func() { send(nodes[7], 19, 40) })
		eng.Schedule(base+1_500_000, func() { send(nodes[6], 11, 20) })
	}
	eng.Run()
	if !fired {
		t.Fatal("node 2 never received node 1's long frame")
	}
	return obs.deliveries(), m.Stats()
}

// TestInterfererViewMatchesOracle byte-compares deliveries and stats
// against the full-scan oracle where the per-frame interferer view could
// go wrong: one transmitter's two frames at two powers overlapping a
// long frame (its memo row is retagged while the view holds it), a
// receiver's OnFrame moving or detaching an interferer's transmitter in
// the middle of a delivery (its memo row is purged while the view holds
// it), and, sharded, one frame's candidates alternating between
// receiver cells (each cell's view holds that cell's rows).
func TestInterfererViewMatchesOracle(t *testing.T) {
	for _, tc := range []struct {
		name   string
		change int
	}{{"two-powers", viewQuiet}, {"move-mid-deliver", viewMove}, {"detach-mid-deliver", viewDetach}} {
		for _, shard := range []bool{false, true} {
			name := tc.name
			if shard {
				name += "/sharded"
			}
			t.Run(name, func(t *testing.T) {
				want, wantStats := viewScenario(t, true, shard, tc.change)
				got, gotStats := viewScenario(t, false, shard, tc.change)
				noise, interfered := phys.DefaultModel(42).NoiseFloor, 0
				for _, d := range want {
					demodulated := d.Outcome == outcomeDelivered || d.Outcome == outcomeCorrupted
					if demodulated && d.Info.SNRDB < d.Info.RxPowerDBm-noise-0.01 {
						interfered++
					}
				}
				if interfered == 0 {
					t.Fatal("no delivery was interfered")
				}
				if len(got) != len(want) {
					t.Fatalf("%d deliveries, oracle %d", len(got), len(want))
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("delivery %d differs:\nmedium %+v\noracle %+v", i, got[i], want[i])
					}
				}
				if gotStats != wantStats {
					t.Fatalf("stats differ:\nmedium %+v\noracle %+v", gotStats, wantStats)
				}
			})
		}
	}
}
