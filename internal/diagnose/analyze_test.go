package diagnose

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"liteview/internal/core"
	"liteview/internal/phys"
)

// linkSurvey returns the interrogation results of four reachable nodes
// whose links each qualify in both directions: 3↔10 is bursty both
// ways, at a different delivery ratio each way, and 4↔7 is suspect
// both ways, at a different unicast delivery each way.
func linkSurvey() []NodeHealth {
	node := func(id phys.NodeID, nbrs ...core.NbrEntry) NodeHealth {
		return NodeHealth{
			Target:    Target{ID: id, Name: fmt.Sprintf("n%d", id)},
			Reachable: true,
			Energy:    core.EnergyStats{RemainingPermille: 1000},
			Neighbors: nbrs,
		}
	}
	bursty := func(id phys.NodeID, prr uint8) core.NbrEntry {
		return core.NbrEntry{ID: id, LQI: 105, PRRPercent: prr, WithLink: true}
	}
	suspect := func(id phys.NodeID, delivery uint8) core.NbrEntry {
		return core.NbrEntry{ID: id, LQI: 100, PRRPercent: 95, DeliveryPercent: delivery,
			Suspect: true, WithLink: true}
	}
	return []NodeHealth{
		node(3, bursty(10, 41)),
		node(10, bursty(3, 52)),
		node(4, suspect(7, 20)),
		node(7, suspect(4, 35)),
	}
}

// TestLinkFindingsIgnoreMapOrder builds the findings for links that
// qualify in both directions 50 times: each pair must be reported once,
// always from the lower-numbered node's view, whatever order the maps
// the analysis builds are visited in.
func TestLinkFindingsIgnoreMapOrder(t *testing.T) {
	var opt Options
	opt.normalize()
	want := analyze(linkSurvey(), opt)
	kinds := map[string]int{}
	for _, f := range want {
		kinds[f.Kind]++
	}
	if kinds["bursty-link"] != 1 || kinds["suspect-link"] != 1 {
		t.Fatalf("want one bursty and one suspect finding, got %+v", want)
	}
	for _, f := range want {
		switch f.Kind {
		case "bursty-link":
			if f.Node != 3 || f.Peer != 10 || !strings.Contains(f.Detail, "only 41%") {
				t.Errorf("bursty finding %+v, want 3↔10 as seen at 3 (41%%)", f)
			}
		case "suspect-link":
			if f.Node != 4 || f.Peer != 7 || !strings.Contains(f.Detail, "n4→n7") || !strings.Contains(f.Detail, "~20%") {
				t.Errorf("suspect finding %+v, want n4→n7 at ~20%%", f)
			}
		}
	}
	for i := 0; i < 50; i++ {
		if got := analyze(linkSurvey(), opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}
