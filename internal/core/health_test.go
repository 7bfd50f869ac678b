package core_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/testbed"
)

// TestHealthMatchesSeparateReplies: with beaconing stopped, so that no
// neighbor row changes under the queries, the health query's one reply
// equals the radio-get, stats, energy and neighbor-list replies field
// for field. Each query runs on its own copy of one seeded deployment
// and reaches the node at the same instant, so the counters and the
// battery account are read in the same state too. The paper's 5×6
// testbed at 8 m gives the queried node more neighbors than one row
// message holds.
func TestHealthMatchesSeparateReplies(t *testing.T) {
	const node = 15
	for _, lpl := range []bool{false, true} {
		t.Run(fmt.Sprintf("lpl=%v", lpl), func(t *testing.T) {
			deployment := func() *core.Workstation {
				opt := testbed.DefaultOptions(5)
				opt.ShadowSigma, opt.AsymSigma = 0, 0
				warm := 20 * time.Second
				if lpl {
					opt.LPL, opt.BeaconPeriod, warm = true, 10*time.Second, 60*time.Second
				}
				tb, err := testbed.Grid(5, 6, 8, opt)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := tb.InstallLiteView(); err != nil {
					t.Fatal(err)
				}
				tb.WarmUp(warm)
				for _, n := range tb.Nodes {
					n.Neighbors().Stop()
				}
				ws, err := tb.NewWorkstation(tb.Node(node - 1).Position())
				if err != nil {
					t.Fatal(err)
				}
				return ws
			}
			h, err := deployment().Health(node)
			if err != nil {
				t.Fatal(err)
			}
			ri, err := deployment().RadioGet(node)
			if err != nil {
				t.Fatal(err)
			}
			st, err := deployment().Stats(node)
			if err != nil {
				t.Fatal(err)
			}
			es, err := deployment().Energy(node)
			if err != nil {
				t.Fatal(err)
			}
			nl, err := deployment().NeighborList(node)
			if err != nil {
				t.Fatal(err)
			}
			if h.Radio != ri {
				t.Errorf("radio %+v, radio-get %+v", h.Radio, ri)
			}
			if h.Stats != st.Node {
				t.Errorf("stats %+v, stats-get %+v", h.Stats, st.Node)
			}
			if h.Energy != es {
				t.Errorf("energy %+v, energy-get %+v", h.Energy, es)
			}
			rows := nl.Entries
			if !reflect.DeepEqual(h.Neighbors, rows) {
				t.Errorf("neighbor rows\n%+v\nneighbor list\n%+v", h.Neighbors, rows)
			}
			if len(rows) <= core.NbrRowsChunk {
				t.Errorf("%d neighbors fit one row message; the test wants several", len(rows))
			}
		})
	}
}
