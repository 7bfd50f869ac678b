package diagnose

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"liteview/internal/core"
	"liteview/internal/phys"
)

// reachable returns the interrogation result of a node that answered
// every command, with a full battery and no losses.
func reachable(id phys.NodeID, nbrs ...core.NbrEntry) NodeHealth {
	return NodeHealth{
		Target:    Target{ID: id, Name: fmt.Sprintf("n%d", id)},
		Reachable: true,
		Energy:    core.EnergyStats{RemainingPermille: 1000},
		Neighbors: nbrs,
	}
}

// hasKind reports whether some finding is of kind.
func hasKind(fs []Finding, kind string) bool {
	for _, f := range fs {
		if f.Kind == kind {
			return true
		}
	}
	return false
}

// linkSurvey returns the interrogation results of four reachable nodes
// whose links each qualify in both directions: 3↔10 is bursty both
// ways, at a different delivery ratio each way, and 4↔7 is suspect
// both ways, at a different unicast delivery each way.
func linkSurvey() []NodeHealth {
	bursty := func(id phys.NodeID, prr uint8) core.NbrEntry {
		return core.NbrEntry{ID: id, LQI: 105, PRRPercent: prr}
	}
	suspect := func(id phys.NodeID, delivery uint8) core.NbrEntry {
		return core.NbrEntry{ID: id, LQI: 100, PRRPercent: 95, DeliveryPercent: delivery,
			Suspect: true}
	}
	return []NodeHealth{
		reachable(3, bursty(10, 41)),
		reachable(10, bursty(3, 52)),
		reachable(4, suspect(7, 20)),
		reachable(7, suspect(4, 35)),
	}
}

// TestLinkFindingsIgnoreMapOrder builds the findings for links that
// qualify in both directions 50 times: each pair must be reported once,
// always from the lower-numbered node's view, whatever order the maps
// the analysis builds are visited in.
func TestLinkFindingsIgnoreMapOrder(t *testing.T) {
	want := analyze(linkSurvey())
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
		if got := analyze(linkSurvey()); !reflect.DeepEqual(got, want) {
			t.Fatalf("build %d differs:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestLowBatteryFlagged checks the battery floor on both sides: the
// simulation cannot drain a battery to 20 % in test time.
func TestLowBatteryFlagged(t *testing.T) {
	for _, c := range []struct {
		permille int
		want     bool
	}{{lowBatteryPermille, true}, {lowBatteryPermille + 1, false}} {
		n := reachable(1, core.NbrEntry{ID: 2, LQI: 100, PRRPercent: 100})
		n.Energy.RemainingPermille = uint16(c.permille)
		if got := analyze([]NodeHealth{n}); hasKind(got, "low-battery") != c.want {
			t.Errorf("battery at %d‰: low-battery flagged %v, want %v: %+v", c.permille, !c.want, c.want, got)
		}
	}
}

// TestDetectorThresholds runs the other threshold detectors on crafted
// interrogation results just on each side of their constants; the
// scenario tests only show that a detector fires somewhere past it.
func TestDetectorThresholds(t *testing.T) {
	noAck := func(frames int) []NodeHealth {
		n := reachable(1, core.NbrEntry{ID: 2, LQI: 100, PRRPercent: 100})
		n.Stats.MACNoAck = uint32(frames)
		return []NodeHealth{n}
	}
	// asym: 1 hears 2 at LQI 100, 2 hears 1 at 100-diff.
	asym := func(diff int) []NodeHealth {
		return []NodeHealth{
			reachable(1, core.NbrEntry{ID: 2, LQI: 100, PRRPercent: 100}),
			reachable(2, core.NbrEntry{ID: 1, LQI: uint8(100 - diff), PRRPercent: 100}),
		}
	}
	// bursty: both ends hear each other at lqi; 1 gets prr% of 2's beacons.
	bursty := func(lqi, prr int) []NodeHealth {
		return []NodeHealth{
			reachable(1, core.NbrEntry{ID: 2, LQI: uint8(lqi), PRRPercent: uint8(prr)}),
			reachable(2, core.NbrEntry{ID: 1, LQI: uint8(lqi), PRRPercent: 100}),
		}
	}
	cases := []struct {
		name      string
		kind      string
		hit, miss []NodeHealth
	}{
		{"abandoned frames", "loss-hotspot", noAck(lossHotspotNoAck), noAck(lossHotspotNoAck - 1)},
		{"LQI disagreement", "asymmetric-link", asym(asymmetryLQI), asym(asymmetryLQI - 1)},
		{"bursty LQI floor", "bursty-link", bursty(burstyLQIMin, burstyPRRMax), bursty(burstyLQIMin-1, burstyPRRMax)},
		{"bursty PRR ceiling", "bursty-link", bursty(burstyLQIMin, burstyPRRMax), bursty(burstyLQIMin, burstyPRRMax+1)},
	}
	for _, c := range cases {
		if got := analyze(c.hit); !hasKind(got, c.kind) {
			t.Errorf("%s: at the threshold, no %s finding: %+v", c.name, c.kind, got)
		}
		if got := analyze(c.miss); hasKind(got, c.kind) {
			t.Errorf("%s: one step inside the threshold, %s flagged: %+v", c.name, c.kind, got)
		}
	}
}
