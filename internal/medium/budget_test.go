package medium

import (
	"slices"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
)

// TestCandidateBuildBudgets pins what building candidate sets costs:
// exactly one link budget per ordered pair within the detectability
// range, since members of the ring farther away are ruled out by
// distance alone. The sets must still equal the full scan's: every
// other attached node, in attach order, whose budget clears the floor,
// with its received power. The unsharded grid is grid-400's (one cell
// holding all 400 nodes, no shadowing); the sharded one has light
// shadowing and asymmetry, so the range carries their worst-case boost
// and still leaves pairs in the ring to rule out.
func TestCandidateBuildBudgets(t *testing.T) {
	for _, tc := range []struct {
		name    string
		side    int
		sigmas  bool
		sharded bool
	}{
		{"unsharded-20x20", 20, false, false},
		{"sharded-30x30", 30, true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, m := newTestMedium()
			if tc.sigmas {
				m.model.ShadowSigma, m.model.AsymSigma = 0.5, 0.25
			}
			nodes := make([]*fakeNode, tc.side*tc.side)
			for i := range nodes {
				nodes[i] = newFake(phys.NodeID(i+1), float64(i%tc.side)*14, float64(i/tc.side)*14)
				if err := m.Attach(nodes[i]); err != nil {
					t.Fatal(err)
				}
			}
			if tc.sharded {
				m.SetSharding(Sharding{})
			}
			limit := m.model.DetectRange(maxTxDBm, radio.SensitivityDBm-FadeMarginDB) * (1 + 1e-9)
			within := 0
			for _, a := range nodes {
				for _, b := range nodes {
					if a != b && a.pos.Distance(b.pos) <= limit {
						within++
					}
				}
			}
			if all := len(nodes) * (len(nodes) - 1); within == all {
				t.Fatalf("all %d ordered pairs lie within %.1f m: the grid rules nothing out by range", all, limit)
			}

			txDBm := radio.PowerDBm(radio.MaxPowerLevel - 6)
			before := m.budgets
			for _, n := range nodes {
				m.reachFor(m.slotOf[n.id], txDBm)
			}
			if got := m.budgets - before; got != uint64(within) {
				t.Fatalf("candidate-set builds computed %d budgets, want %d: one per ordered pair within %.1f m",
					got, within, limit)
			}

			for _, n := range nodes {
				var cand []int32
				var rx []float64
				for _, s := range m.order {
					o := m.slots[s]
					if o.id == n.id {
						continue
					}
					b := m.model.LinkBudget(n.id, o.id, n.pos, o.pos)
					if b.Received(maxTxDBm) >= radio.SensitivityDBm-FadeMarginDB {
						cand = append(cand, s)
						rx = append(rx, b.Received(txDBm))
					}
				}
				r := m.reach[m.slotOf[n.id]]
				if !slices.Equal(r.cand, cand) || !slices.Equal(r.rx, rx) {
					t.Fatalf("node %d: candidate set %v %v, full scan %v %v", n.id, r.cand, r.rx, cand, rx)
				}
			}
		})
	}
}
