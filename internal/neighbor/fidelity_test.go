package neighbor_test

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"liteview/internal/liteos"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/testbed"
)

// paperTestbed warms up the paper's thirty-node testbed (5×6 at 8 m).
// Every node hears more than 16 of the other 29, so each 16-row table
// must choose.
func paperTestbed(t *testing.T, seed uint64) *testbed.Testbed {
	t.Helper()
	tb, err := testbed.Grid(5, 6, 8, testbed.DefaultOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(20 * time.Second)
	return tb
}

// members returns the IDs in n's table, in ID order.
func members(n *liteos.Node) []phys.NodeID {
	var ids []phys.NodeID
	for _, e := range n.SysNeighborTable().Entries() {
		ids = append(ids, e.ID)
	}
	return ids
}

// TestTableStableOnPaperTestbed runs 30 beacon rounds on the paper's
// testbed. Before the first, every entry's delivery estimate is marked
// with one failed unicast; only an entry that was never evicted still
// carries that mark. Each such entry that is still being heard folded
// every one of its neighbor's beacons into the same LQI and RSSI EWMAs.
// Most entries must end the run that way, and the member set may change
// by only a few entries a round.
func TestTableStableOnPaperTestbed(t *testing.T) {
	const rounds = 30
	tb := paperTestbed(t, 1)
	start := tb.Eng.Now()
	for _, n := range tb.Nodes {
		tab := n.SysNeighborTable()
		for _, e := range tab.Entries() {
			tab.ObserveTxResult(e.ID, false, start)
		}
	}
	// The estimate one failure leaves behind, read off any marked entry.
	marked, _ := tb.Node(0).SysNeighborTable().Get(members(tb.Node(0))[0])
	changed, total := 0, 0
	for r := 0; r < rounds; r++ {
		before := map[phys.NodeID][]phys.NodeID{}
		for _, n := range tb.Nodes {
			before[n.ID()] = members(n)
		}
		tb.Run(neighbor.DefaultBeaconPeriod)
		for _, n := range tb.Nodes {
			for _, id := range members(n) {
				total++
				if !slices.Contains(before[n.ID()], id) {
					changed++
				}
			}
		}
	}
	kept := 0
	for _, n := range tb.Nodes {
		tab := n.SysNeighborTable()
		if l := tab.Len(); l != neighbor.DefaultCapacity {
			t.Fatalf("node %d holds %d entries, want a full table of %d", n.ID(), l, neighbor.DefaultCapacity)
		}
		for _, e := range tab.Entries() {
			if e.Delivery == marked.Delivery && e.LastHeard > tb.Eng.Now()-neighbor.DefaultBeaconPeriod {
				kept++
			}
		}
	}
	perNode := float64(kept) / float64(len(tb.Nodes))
	churn := float64(changed) / float64(total)
	t.Logf("entries kept and heard through %d rounds: %.1f of %d per node; new members per round: %.2f %%",
		rounds, perNode, neighbor.DefaultCapacity, 100*churn)
	if perNode < 12 {
		t.Errorf("only %.1f of %d entries per node kept their estimates through %d beacon rounds",
			perNode, neighbor.DefaultCapacity, rounds)
	}
	if churn > 0.02 {
		t.Errorf("%.2f %% of entries are new each beacon round, want at most 2 %%", 100*churn)
	}
}

// TestSuspectSurvivesStrangers marks each node's link to its strongest
// neighbor suspect and lets 30 beacon rounds pass, in which the
// neighbors that did not fit into each table keep beaconing. With no
// unicast traffic to clear them, the marks must still be there. An
// entry whose LQI EWMA a burst of interfered receptions drags below a
// stranger's clean beacon can still lose its row, so a few marks may
// go; a table that replaced entries on every stranger's beacon kept
// none.
func TestSuspectSurvivesStrangers(t *testing.T) {
	tb := paperTestbed(t, 2)
	marked := map[phys.NodeID]phys.NodeID{}
	for _, n := range tb.Nodes {
		tab := n.SysNeighborTable()
		es := tab.Entries()
		best := slices.MaxFunc(es, func(a, b neighbor.Entry) int { return cmp.Compare(a.RSSI, b.RSSI) })
		if err := tab.MarkSuspect(best.ID, true); err != nil {
			t.Fatal(err)
		}
		marked[n.ID()] = best.ID
	}
	tb.Run(30 * neighbor.DefaultBeaconPeriod)
	kept := 0
	for _, n := range tb.Nodes {
		if e, ok := n.SysNeighborTable().Get(marked[n.ID()]); ok && e.Suspect {
			kept++
		} else {
			t.Logf("node %d: suspect mark on %d lost (entry present %v)", n.ID(), marked[n.ID()], ok)
		}
	}
	if floor := len(tb.Nodes) * 9 / 10; kept < floor {
		t.Errorf("%d of %d suspect marks survived, want at least %d", kept, len(tb.Nodes), floor)
	}
}

// TestUsableViewHoldsBestNeighbors compares each node's usable view,
// the one geographic forwarding chooses next hops from, with the
// neighbors whose links are best on the noise-free model: ranked by the
// LQI and then the RSSI register value their beacons arrive with at
// zero interference. The view must hold nearly all of the best 16.
func TestUsableViewHoldsBestNeighbors(t *testing.T) {
	tb := paperTestbed(t, 3)
	tb.Run(10 * neighbor.DefaultBeaconPeriod)
	type link struct {
		id        phys.NodeID
		lqi, rssi int
	}
	hits, want := 0, 0
	for _, n := range tb.Nodes {
		var links []link
		for _, m := range tb.Nodes {
			if m == n {
				continue
			}
			rx := tb.Model.ReceivedPower(radio.PowerDBm(m.Radio().PowerLevel()), m.ID(), n.ID(), m.Position(), n.Position())
			links = append(links, link{m.ID(), radio.LQI(tb.Model.SNR(rx)), radio.RSSIRegister(rx)})
		}
		slices.SortFunc(links, func(a, b link) int {
			return cmp.Or(cmp.Compare(b.lqi, a.lqi), cmp.Compare(b.rssi, a.rssi))
		})
		usable := make(map[phys.NodeID]bool)
		n.SysNeighborTable().EachUsable(func(e *neighbor.Entry) { usable[e.ID] = true })
		for _, l := range links[:neighbor.DefaultCapacity] {
			want++
			if usable[l.id] {
				hits++
			}
		}
	}
	share := float64(hits) / float64(want)
	t.Logf("usable views hold %.1f %% of the best %d links", 100*share, neighbor.DefaultCapacity)
	if share < 0.9 {
		t.Errorf("usable views hold %.1f %% of each node's best %d links, want at least 90 %%", 100*share, neighbor.DefaultCapacity)
	}
}
