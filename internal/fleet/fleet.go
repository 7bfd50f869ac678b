// Package fleet folds a cross-layer telemetry event stream into a live
// operator's view of the deployment: which nodes are up, crashed, or
// breaker-isolated, what the neighbor tables believe about every link
// (delivery, ETX, PRR, suspicion), which faults are active, and what
// the recent workstation commands concluded. It is the aggregation
// layer behind `lvtopo -live`: the same State works against a recorded
// JSONL trace, an in-process subscription, or frames streamed off a
// daemon — anything that yields telemetry events in sequence order.
//
// State is a pure consumer: it never touches a simulation, so feeding
// it is exactly as perturbation-free as the subscription delivering the
// events (DESIGN §12).
package fleet

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// maxVerdicts bounds the recent-command history Render shows.
const maxVerdicts = 8

// NodeState is one node's aggregated health.
type NodeState struct {
	ID phys.NodeID
	// Crashed is true between a node-crash fault-active and its clear.
	Crashed bool
	// BreakerOpen is true while the workstation's per-node circuit
	// breaker holds the node in isolation.
	BreakerOpen bool
	// Faults holds the ids of active non-crash faults targeting the node.
	Faults map[int]string
	// Events counts every event owned by the node.
	Events uint64
	// LastSeen is the virtual time of the node's newest event.
	LastSeen sim.Time
}

// LinkState is one directed link as its transmitter's neighbor table
// estimates it.
type LinkState struct {
	From, To phys.NodeID
	Delivery float64
	ETX      float64
	PRR      float64
	Suspect  bool
	Updated  sim.Time
}

// Verdict is one completed workstation command span.
type Verdict struct {
	Span    uint64
	Node    phys.NodeID
	Cmd     string
	Dst     string
	Verdict string
	At      sim.Time
	Dur     sim.Time
}

type linkKey struct{ from, to phys.NodeID }

// State is the fold over the event stream. Not safe for concurrent use;
// one consumer goroutine owns it.
type State struct {
	now      sim.Time
	events   uint64
	nodes    map[phys.NodeID]*NodeState
	links    map[linkKey]*LinkState
	verdicts []Verdict
	// jams counts active network-wide faults (node 0): jam, partition.
	jams map[int]string
}

// NewState builds an empty view.
func NewState() *State {
	return &State{
		nodes: make(map[phys.NodeID]*NodeState),
		links: make(map[linkKey]*LinkState),
		jams:  make(map[int]string),
	}
}

// Events reports how many events have been folded in.
func (s *State) Events() uint64 { return s.events }

// Now reports the newest virtual time seen.
func (s *State) Now() sim.Time { return s.now }

func (s *State) node(id phys.NodeID) *NodeState {
	n, ok := s.nodes[id]
	if !ok {
		n = &NodeState{ID: id, Faults: make(map[int]string)}
		s.nodes[id] = n
	}
	return n
}

// Apply folds one event into the view.
func (s *State) Apply(e telemetry.Event) {
	s.events++
	if at := e.At + e.Dur; at > s.now {
		s.now = at
	}
	if e.NodeID != 0 {
		n := s.node(e.NodeID)
		n.Events++
		if e.At > n.LastSeen {
			n.LastSeen = e.At
		}
	}
	switch e.Layer {
	case telemetry.LayerFault:
		s.applyFault(e)
	case telemetry.LayerController:
		switch e.Kind {
		case "breaker-open":
			s.node(e.NodeID).BreakerOpen = true
		case "breaker-close":
			s.node(e.NodeID).BreakerOpen = false
		}
	case telemetry.LayerNeighbor:
		if e.Kind == "link-state" {
			s.applyLink(e)
		}
	case telemetry.LayerSpan:
		dst, _ := e.Attr("dst")
		verdict, _ := e.Attr("verdict")
		s.verdicts = append(s.verdicts, Verdict{
			Span: e.Span, Node: e.NodeID, Cmd: e.Kind,
			Dst: dst, Verdict: verdict, At: e.At, Dur: e.Dur,
		})
		if len(s.verdicts) > maxVerdicts {
			s.verdicts = s.verdicts[len(s.verdicts)-maxVerdicts:]
		}
	}
}

func (s *State) applyFault(e telemetry.Event) {
	kind, _ := e.Attr("fault")
	id := attrInt(e, "id")
	switch e.Kind {
	case "fault-active":
		if e.NodeID == 0 {
			s.jams[id] = kind
			return
		}
		n := s.node(e.NodeID)
		if kind == "node-crash" {
			n.Crashed = true
		}
		n.Faults[id] = kind
	case "fault-clear":
		if e.NodeID == 0 {
			delete(s.jams, id)
			return
		}
		n := s.node(e.NodeID)
		if kind == "node-crash" {
			n.Crashed = false
		}
		delete(n.Faults, id)
	}
}

func (s *State) applyLink(e telemetry.Event) {
	to := phys.NodeID(attrInt(e, "to"))
	if to == 0 {
		return
	}
	k := linkKey{from: e.NodeID, to: to}
	l, ok := s.links[k]
	if !ok {
		l = &LinkState{From: e.NodeID, To: to}
		s.links[k] = l
	}
	l.Delivery = attrFloat(e, "delivery")
	l.ETX = attrFloat(e, "etx")
	l.PRR = attrFloat(e, "prr")
	suspect, _ := e.Attr("suspect")
	l.Suspect = suspect == "true"
	l.Updated = e.At
}

func attrInt(e telemetry.Event, key string) int {
	v, ok := e.Attr(key)
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(v)
	if err != nil {
		return 0
	}
	return n
}

func attrFloat(e telemetry.Event, key string) float64 {
	v, ok := e.Attr(key)
	if !ok {
		return 0
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0
	}
	return f
}

// Nodes returns the tracked nodes sorted by id.
func (s *State) Nodes() []*NodeState {
	out := make([]*NodeState, 0, len(s.nodes))
	for _, n := range s.nodes {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Links returns the tracked links sorted by (from, to).
func (s *State) Links() []*LinkState {
	out := make([]*LinkState, 0, len(s.links))
	for _, l := range s.links {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	return out
}

// Render formats the whole view as one fixed-order text frame. The
// output is deterministic in the event stream (maps are sorted, no wall
// clock), so a replayed trace always renders byte-identically.
func (s *State) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet @ %v  (%d events)\n", s.now, s.events)
	if len(s.jams) > 0 {
		kinds := make([]string, 0, len(s.jams))
		for id, k := range s.jams {
			kinds = append(kinds, fmt.Sprintf("%s#%d", k, id))
		}
		sort.Strings(kinds)
		fmt.Fprintf(&b, "network faults: %s\n", strings.Join(kinds, " "))
	}
	b.WriteString("nodes:\n")
	for _, n := range s.Nodes() {
		state := "up"
		if n.Crashed {
			state = "CRASHED"
		}
		fmt.Fprintf(&b, "  %-6d %-8s", uint64(n.ID), state)
		if n.BreakerOpen {
			b.WriteString(" breaker=open")
		}
		if len(n.Faults) > 0 {
			kinds := make([]string, 0, len(n.Faults))
			for id, k := range n.Faults {
				if k == "node-crash" {
					continue // already shown as the state
				}
				kinds = append(kinds, fmt.Sprintf("%s#%d", k, id))
			}
			if len(kinds) > 0 {
				sort.Strings(kinds)
				fmt.Fprintf(&b, " faults=%s", strings.Join(kinds, ","))
			}
		}
		fmt.Fprintf(&b, " events=%d last=%v\n", n.Events, n.LastSeen)
	}
	if links := s.Links(); len(links) > 0 {
		b.WriteString("links (tx neighbor-table estimates):\n")
		for _, l := range links {
			flag := ""
			if l.Suspect {
				flag = " SUSPECT"
			}
			fmt.Fprintf(&b, "  %d->%-6d delivery=%.2f etx=%.2f prr=%.2f%s\n",
				uint64(l.From), uint64(l.To), l.Delivery, l.ETX, l.PRR, flag)
		}
	}
	if len(s.verdicts) > 0 {
		b.WriteString("recent commands:\n")
		for _, v := range s.verdicts {
			line := fmt.Sprintf("  span %d %s node=%d", v.Span, v.Cmd, uint64(v.Node))
			if v.Dst != "" {
				line += " dst=" + v.Dst
			}
			if v.Verdict != "" {
				line += " verdict=" + v.Verdict
			}
			fmt.Fprintf(&b, "%s at=%v dur=%v\n", line, v.At, v.Dur)
		}
	}
	return b.String()
}
