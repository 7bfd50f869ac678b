package core

import (
	"testing"

	"liteview/internal/phys"
)

// TestVerdictText pins the text of every verdict kind. The shell prints
// these after "Verdict: ", command spans record them, and lvperf
// classifies a traceroute by "destination N reached".
func TestVerdictText(t *testing.T) {
	cases := []struct {
		v    Verdict
		want string
	}{
		{Verdict{}, ""},
		{Verdict{Kind: VerdictOK, Node: 2, Sent: 3}, "ok"},
		{Verdict{Kind: VerdictPartial, Node: 2, Lost: 1, Sent: 3}, "partial: 1/3 round(s) lost"},
		{Verdict{Kind: VerdictUnreachable, Node: 2, Lost: 3, Sent: 3}, "destination 2 unreachable: all 3 round(s) lost"},
		{Verdict{Kind: VerdictReached, Node: 6, Hop: 5}, "destination 6 reached in 5 hop(s)"},
		{Verdict{Kind: VerdictNoAnswer, Node: 3, Hop: 2},
			"path broke at hop 2: node 3 did not answer its probe (crashed, jammed, or link down)"},
		{Verdict{Kind: VerdictRouteLost, Node: 4, Hop: 3},
			"path broke at hop 3: no next hop toward the destination (route lost)"},
		{Verdict{Kind: VerdictIncomplete, Node: 4, Hop: 3},
			"incomplete: last report from hop 3, session cut by the response window"},
		{Verdict{Kind: VerdictNoReports, Node: 1}, "no hop reports: no route toward the destination, or all reports lost"},
		{Verdict{Kind: VerdictNoResponse, Node: 1}, "no response: controller unreachable within the response window"},
		{Verdict{Kind: VerdictNotDelivered, Node: 1},
			"command delivery to node 1 failed (node down, out of range, or channel jammed)"},
		{Verdict{Kind: VerdictRefused, Node: 1},
			"command to node 1 not sent (circuit breaker open, or another command in flight)"},
	}
	seen := make(map[VerdictKind]bool)
	for _, tc := range cases {
		if got := tc.v.String(); got != tc.want {
			t.Errorf("kind %d: %q, want %q", tc.v.Kind, got, tc.want)
		}
		seen[tc.v.Kind] = true
	}
	for k := VerdictNone; k <= VerdictRefused; k++ {
		if !seen[k] {
			t.Errorf("kind %d has no row", k)
		}
	}
}

// TestTrVerdictBlames checks the node and hop each traceroute verdict
// names, given the reports in arrival order.
func TestTrVerdictBlames(t *testing.T) {
	rep := func(hop int, from uint16, lost, final bool) TimedHopReport {
		return TimedHopReport{TrHopReport: TrHopReport{Hop: hop, From: phys.NodeID(from), Lost: lost, Final: final}}
	}
	cases := []struct {
		name    string
		reports []TimedHopReport
		want    Verdict
	}{
		{"no reports", nil, Verdict{Kind: VerdictNoReports, Node: 1}},
		{"reached", []TimedHopReport{rep(1, 2, false, false), rep(2, 5, false, true)},
			Verdict{Kind: VerdictReached, Node: 5, Hop: 2}},
		{"probed node silent", []TimedHopReport{rep(1, 2, false, false), rep(2, 3, true, false)},
			Verdict{Kind: VerdictNoAnswer, Node: 3, Hop: 2}},
		{"source has no route", []TimedHopReport{rep(1, 0, true, false)},
			Verdict{Kind: VerdictRouteLost, Node: 1, Hop: 1}},
		{"relay has no route", []TimedHopReport{rep(1, 2, false, false), rep(2, 3, false, false), rep(3, 0, true, false)},
			Verdict{Kind: VerdictRouteLost, Node: 3, Hop: 3}},
		{"relay unknown", []TimedHopReport{rep(1, 2, false, false), rep(3, 0, true, false)},
			Verdict{Kind: VerdictRouteLost, Node: 0, Hop: 3}},
		{"cut by the window", []TimedHopReport{rep(1, 2, false, false), rep(2, 3, false, false)},
			Verdict{Kind: VerdictIncomplete, Node: 3, Hop: 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := trVerdict(1, 5, tc.reports); got != tc.want {
				t.Fatalf("trVerdict = %#v, want %#v", got, tc.want)
			}
		})
	}
}
