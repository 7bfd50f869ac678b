package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/telemetry"
)

func phyID(n uint64) phys.NodeID { return phys.NodeID(n) }

func ev(seq uint64, at time.Duration, node uint64, layer telemetry.Layer, kind string, attrs ...telemetry.Attr) telemetry.Event {
	return telemetry.Event{Seq: seq, At: at, NodeID: phyID(node), Layer: layer, Kind: kind, Attrs: attrs}
}

func TestStateFoldsFaultsBreakersLinksAndSpans(t *testing.T) {
	s := NewState()
	feed := []telemetry.Event{
		ev(1, 0, 2, telemetry.LayerMAC, "tx"),
		ev(2, 100*time.Millisecond, 3, telemetry.LayerFault, "fault-active",
			telemetry.String("fault", "corrupt-burst"), telemetry.Int("id", 7)),
		ev(3, 200*time.Millisecond, 4, telemetry.LayerFault, "fault-active",
			telemetry.String("fault", "node-crash"), telemetry.Int("id", 8)),
		ev(4, 250*time.Millisecond, 0, telemetry.LayerFault, "fault-active",
			telemetry.String("fault", "jam"), telemetry.Int("id", 9)),
		ev(5, 300*time.Millisecond, 2, telemetry.LayerController, "breaker-open"),
		ev(6, 400*time.Millisecond, 2, telemetry.LayerNeighbor, "link-state",
			telemetry.Int("to", 3), telemetry.Float("delivery", 0.5),
			telemetry.Float("etx", 2.0), telemetry.Float("prr", 0.45),
			telemetry.String("suspect", "true")),
		{Seq: 7, At: 0, Dur: 500 * time.Millisecond, NodeID: phyID(1),
			Layer: telemetry.LayerSpan, Kind: "ping", Span: 11,
			Attrs: []telemetry.Attr{telemetry.String("dst", "192.168.0.3"),
				telemetry.String("verdict", "ok")}},
	}
	for _, e := range feed {
		s.Apply(e)
	}

	if s.Events() != 7 {
		t.Fatalf("Events = %d, want 7", s.Events())
	}
	if s.Now() != 500*time.Millisecond {
		t.Fatalf("Now = %v, want the span end at 500ms", s.Now())
	}

	nodes := s.Nodes()
	if len(nodes) != 4 {
		t.Fatalf("tracked %d nodes, want 4 (network-wide node 0 excluded)", len(nodes))
	}
	byID := make(map[uint64]*NodeState)
	for _, n := range nodes {
		byID[uint64(n.ID)] = n
	}
	if n := byID[2]; !n.BreakerOpen || n.Crashed || n.Events != 3 {
		t.Fatalf("node 2 state wrong: %+v", n)
	}
	if n := byID[3]; n.Faults[7] != "corrupt-burst" {
		t.Fatalf("node 3 missing the corrupt-burst fault: %+v", n)
	}
	if n := byID[4]; !n.Crashed {
		t.Fatalf("node 4 not crashed: %+v", n)
	}

	links := s.Links()
	if len(links) != 1 {
		t.Fatalf("tracked %d links, want 1", len(links))
	}
	l := links[0]
	if uint64(l.From) != 2 || uint64(l.To) != 3 || l.Delivery != 0.5 ||
		l.ETX != 2.0 || l.PRR != 0.45 || !l.Suspect {
		t.Fatalf("link state wrong: %+v", l)
	}

	if vs := verdictLines(s); len(vs) != 1 || vs[0] != "span 11 ping node=1 dst=192.168.0.3 verdict=ok at=0s dur=500ms" {
		t.Fatalf("verdicts wrong: %q", vs)
	}

	// Clears undo what actives did.
	s.Apply(ev(8, 600*time.Millisecond, 4, telemetry.LayerFault, "fault-clear",
		telemetry.String("fault", "node-crash"), telemetry.Int("id", 8)))
	s.Apply(ev(9, 600*time.Millisecond, 0, telemetry.LayerFault, "fault-clear",
		telemetry.String("fault", "jam"), telemetry.Int("id", 9)))
	s.Apply(ev(10, 600*time.Millisecond, 2, telemetry.LayerController, "breaker-close"))
	if byID[4].Crashed {
		t.Fatal("fault-clear did not revive node 4")
	}
	if byID[2].BreakerOpen {
		t.Fatal("breaker-close did not reset node 2")
	}
	if strings.Contains(s.Render(), "network faults") {
		t.Fatal("cleared network fault still rendered")
	}
}

func TestVerdictHistoryIsBounded(t *testing.T) {
	s := NewState()
	for i := 1; i <= maxVerdicts+5; i++ {
		s.Apply(telemetry.Event{Seq: uint64(i), NodeID: phyID(1),
			Layer: telemetry.LayerSpan, Kind: "ping", Span: uint64(i)})
	}
	vs := verdictLines(s)
	if len(vs) != maxVerdicts {
		t.Fatalf("kept %d verdicts, want %d", len(vs), maxVerdicts)
	}
	if want := fmt.Sprintf("span %d ", maxVerdicts+5); !strings.HasPrefix(vs[len(vs)-1], want) {
		t.Fatalf("newest verdict %q, want span %d", vs[len(vs)-1], maxVerdicts+5)
	}
}

// verdictLines returns the rendered recent-command lines, oldest first.
func verdictLines(s *State) []string {
	_, recent, _ := strings.Cut(s.Render(), "recent commands:\n")
	var out []string
	for _, line := range strings.Split(strings.TrimRight(recent, "\n"), "\n") {
		if line != "" {
			out = append(out, strings.TrimSpace(line))
		}
	}
	return out
}

// TestRenderIsDeterministic: folding the same stream twice renders the
// same bytes, and the frame shows each aggregate in its fixed section.
func TestRenderIsDeterministic(t *testing.T) {
	build := func() *State {
		s := NewState()
		s.Apply(ev(1, 0, 3, telemetry.LayerFault, "fault-active",
			telemetry.String("fault", "node-crash"), telemetry.Int("id", 1)))
		s.Apply(ev(2, 50*time.Millisecond, 2, telemetry.LayerController, "breaker-open"))
		s.Apply(ev(3, 80*time.Millisecond, 0, telemetry.LayerFault, "fault-active",
			telemetry.String("fault", "partition"), telemetry.Int("id", 2)))
		s.Apply(ev(4, 100*time.Millisecond, 1, telemetry.LayerNeighbor, "link-state",
			telemetry.Int("to", 2), telemetry.Float("delivery", 0.9),
			telemetry.Float("etx", 1.1), telemetry.Float("prr", 0.88)))
		s.Apply(telemetry.Event{Seq: 5, At: 0, Dur: 120 * time.Millisecond,
			NodeID: phyID(1), Layer: telemetry.LayerSpan, Kind: "traceroute", Span: 4,
			Attrs: []telemetry.Attr{telemetry.String("dst", "192.168.0.3"),
				telemetry.String("verdict", "incomplete")}})
		return s
	}
	a, b := build().Render(), build().Render()
	if a != b {
		t.Fatalf("two folds rendered differently:\n--- a ---\n%s--- b ---\n%s", a, b)
	}
	for _, want := range []string{
		"fleet @ 120ms  (5 events)",
		"network faults: partition#2",
		"CRASHED",
		"breaker=open",
		"1->2      delivery=0.90 etx=1.10 prr=0.88",
		"span 4 traceroute node=1 dst=192.168.0.3 verdict=incomplete",
	} {
		if !strings.Contains(a, want) {
			t.Fatalf("frame missing %q:\n%s", want, a)
		}
	}
}
