// Package fault is the deterministic fault injector: it schedules node
// crashes, link blackouts, link degradation, burst corruption, channel
// jamming, and network partitions on the simulation's virtual clock.
//
// Faults are scripted as (at, duration, target) records. All randomness
// (burst corruption draws) comes from the injector's own seed-derived
// stream, so the same topology, seed, and fault schedule replay the
// same fault trace byte for byte — which is what lets the chaos suite
// assert exact reproducibility and lets a user replay the exact failure
// a diagnosis report described.
//
// The injector hooks three layers: the medium (per-delivery drop /
// extra loss / forced corruption), each node's MAC receive path (burst
// corruption), and the LiteOS node lifecycle (Crash/Reboot). The medium
// and MAC hooks are installed only while a fault is active.
package fault

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"liteview/internal/liteos"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// NodeCrash power-fails Node at At; a non-zero Duration reboots it
	// afterwards (kernel state is lost either way).
	NodeCrash Kind = iota + 1
	// LinkBlackout drops every frame between A and B (both directions).
	LinkBlackout
	// LinkDegrade adds ExtraLossDB of path loss between A and B.
	LinkDegrade
	// CorruptBurst corrupts frames received by Node with probability
	// Prob each — the bursty-loss regime of real WSN links.
	CorruptBurst
	// Jam corrupts every frame on Channel (0 = all channels) network
	// wide, modelling a wideband interferer.
	Jam
	// Partition drops every frame crossing the boundary between Group
	// and the rest of the network.
	Partition
)

// String names the fault class.
func (k Kind) String() string {
	switch k {
	case NodeCrash:
		return "node-crash"
	case LinkBlackout:
		return "link-blackout"
	case LinkDegrade:
		return "link-degrade"
	case CorruptBurst:
		return "corrupt-burst"
	case Jam:
		return "jam"
	case Partition:
		return "partition"
	default:
		return fmt.Sprintf("fault.Kind(%d)", int(k))
	}
}

// Defaults for optional fault parameters.
const (
	// DefaultExtraLossDB is the degradation applied when LinkDegrade
	// does not specify one: enough to push a healthy link into the
	// transitional region.
	DefaultExtraLossDB = 20.0
	// DefaultCorruptProb is the per-frame corruption probability when
	// CorruptBurst does not specify one.
	DefaultCorruptProb = 0.8
)

// Fault is one scripted fault: what happens, to whom, and when.
type Fault struct {
	// At is the absolute virtual time the fault begins. It must not be
	// in the past when scheduled.
	At sim.Time
	// Duration is how long the fault lasts; zero means permanent. For
	// NodeCrash a non-zero duration ends with a reboot.
	Duration sim.Time
	// Kind selects the fault class.
	Kind Kind
	// Node is the target for NodeCrash and CorruptBurst.
	Node phys.NodeID
	// A, B name the link for LinkBlackout and LinkDegrade. Both
	// directions are affected.
	A, B phys.NodeID
	// ExtraLossDB is the added path loss for LinkDegrade
	// (0 selects DefaultExtraLossDB).
	ExtraLossDB float64
	// Prob is the per-frame corruption probability for CorruptBurst
	// (0 selects DefaultCorruptProb).
	Prob float64
	// Channel restricts Jam to one 802.15.4 channel; 0 jams them all.
	Channel int
	// Group is the node set cut off from everyone else for Partition.
	Group []phys.NodeID
}

// target renders the fault's subject for listings.
func (f *Fault) target() string {
	switch f.Kind {
	case NodeCrash, CorruptBurst:
		return fmt.Sprintf("node %d", f.Node)
	case LinkBlackout, LinkDegrade:
		return fmt.Sprintf("link %d-%d", f.A, f.B)
	case Jam:
		if f.Channel == 0 {
			return "all channels"
		}
		return fmt.Sprintf("channel %d", f.Channel)
	case Partition:
		parts := make([]string, len(f.Group))
		for i, id := range f.Group {
			parts[i] = fmt.Sprint(id)
		}
		return "group {" + strings.Join(parts, ",") + "}"
	default:
		return "?"
	}
}

// State is a scheduled fault's lifecycle position.
type State int

const (
	// Pending means the fault's start time has not been reached.
	Pending State = iota
	// Active means the fault is currently in force.
	Active
	// Done means the fault window has ended.
	Done
)

// String names the state.
func (s State) String() string {
	switch s {
	case Pending:
		return "pending"
	case Active:
		return "active"
	case Done:
		return "done"
	default:
		return fmt.Sprintf("fault.State(%d)", int(s))
	}
}

// Status describes one scheduled fault for listings.
type Status struct {
	// ID is the handle Schedule returned.
	ID int
	// Fault is the scheduled record.
	Fault Fault
	// State is the current lifecycle position.
	State State
}

// String renders one listing line.
func (s Status) String() string {
	dur := "permanent"
	if s.Fault.Duration > 0 {
		dur = s.Fault.Duration.String()
	}
	return fmt.Sprintf("#%d %-13s %-16s at=%v dur=%s [%s]",
		s.ID, s.Fault.Kind, s.Fault.target(), s.Fault.At, dur, s.State)
}

type scheduled struct {
	id    int
	f     Fault
	group map[phys.NodeID]bool // precomputed Partition membership
	state State
}

// Injector schedules faults and evaluates their effects per delivery.
// It is bound to one engine, one medium, and one node population; all
// of its randomness comes from its own seed-derived stream so it never
// perturbs the draws other components see.
type Injector struct {
	eng    *sim.Engine
	med    *medium.Medium
	nodes  map[phys.NodeID]*liteos.Node
	rng    *sim.Rand
	nextID int
	// faults is kept in scheduling order for deterministic evaluation.
	faults []*scheduled
	// active counts the faults in force. The medium and MAC hooks are
	// installed only while it is non-zero: with nothing active, effect
	// and rxCorrupt return the zero answer without drawing randomness,
	// so leaving them out is exact and spares every delivery the call.
	active int
	// tel, when set, receives fault activation/clear telemetry events.
	tel *telemetry.Recorder
}

// SetTelemetry points the injector at a telemetry recorder (nil
// detaches).
func (in *Injector) SetTelemetry(rec *telemetry.Recorder) { in.tel = rec }

// emitTransition records one fault state change.
func (in *Injector) emitTransition(s *scheduled, kind string) {
	if !in.tel.Recording() {
		return
	}
	in.tel.Emit(s.f.Node, telemetry.LayerFault, kind,
		telemetry.Int("id", s.id),
		telemetry.String("fault", s.f.Kind.String()))
}

// seedSalt decorrelates the injector's stream from the engine's.
const seedSalt = 0x6661756c74 // "fault"

// New builds an injector over the given nodes; it hooks the medium and
// every node's MAC while a fault is active. seed should be the testbed
// seed; the injector derives its own independent stream from it.
func New(eng *sim.Engine, med *medium.Medium, nodes []*liteos.Node, seed uint64) *Injector {
	in := &Injector{
		eng:   eng,
		med:   med,
		nodes: make(map[phys.NodeID]*liteos.Node, len(nodes)),
		rng:   sim.NewRand(seed ^ seedSalt),
	}
	for _, n := range nodes {
		in.nodes[n.ID()] = n
	}
	return in
}

// hook installs the per-delivery hooks on the medium and every node's
// MAC (on), or removes them.
func (in *Injector) hook(on bool) {
	if !on {
		in.med.SetFaultHook(nil)
		for _, n := range in.nodes {
			n.MAC().SetRxFault(nil)
		}
		return
	}
	in.med.SetFaultHook(in.effect)
	for to, n := range in.nodes {
		n.MAC().SetRxFault(func(phys.NodeID) bool { return in.rxCorrupt(to) })
	}
}

// Now returns the current virtual time — the base for relative At math
// in callers like the shell.
func (in *Injector) Now() sim.Time { return in.eng.Now() }

// Node returns the LiteOS node for id, if the injector knows it.
func (in *Injector) Node(id phys.NodeID) (*liteos.Node, bool) {
	n, ok := in.nodes[id]
	return n, ok
}

// validate checks kind-specific requirements and applies defaults.
func (in *Injector) validate(f *Fault) error {
	switch f.Kind {
	case NodeCrash:
		if _, ok := in.nodes[f.Node]; !ok {
			return fmt.Errorf("fault: unknown node %d", f.Node)
		}
	case LinkBlackout, LinkDegrade:
		if f.A == f.B {
			return errors.New("fault: link endpoints must differ")
		}
		if _, ok := in.nodes[f.A]; !ok {
			return fmt.Errorf("fault: unknown node %d", f.A)
		}
		// B may be the workstation, which is attached to the medium but
		// is not a LiteOS node; only require it to be non-zero.
		if f.B == 0 {
			return errors.New("fault: link endpoint B unset")
		}
		if f.Kind == LinkDegrade && f.ExtraLossDB == 0 {
			f.ExtraLossDB = DefaultExtraLossDB
		}
		if f.ExtraLossDB < 0 {
			return fmt.Errorf("fault: negative degradation %v dB", f.ExtraLossDB)
		}
	case CorruptBurst:
		if _, ok := in.nodes[f.Node]; !ok {
			return fmt.Errorf("fault: unknown node %d", f.Node)
		}
		if f.Prob == 0 {
			f.Prob = DefaultCorruptProb
		}
		if f.Prob < 0 || f.Prob > 1 {
			return fmt.Errorf("fault: corruption probability %v outside (0,1]", f.Prob)
		}
	case Jam:
		if f.Channel != 0 && (f.Channel < 11 || f.Channel > 26) {
			return fmt.Errorf("fault: channel %d outside 11..26", f.Channel)
		}
	case Partition:
		if len(f.Group) == 0 {
			return errors.New("fault: partition needs a non-empty group")
		}
		for _, id := range f.Group {
			if _, ok := in.nodes[id]; !ok {
				return fmt.Errorf("fault: unknown node %d in partition group", id)
			}
		}
	default:
		return fmt.Errorf("fault: unknown kind %d", int(f.Kind))
	}
	if f.Duration < 0 {
		return fmt.Errorf("fault: negative duration %v", f.Duration)
	}
	return nil
}

// Schedule scripts one fault and returns its ID. The fault's start must
// not be in the past; At equal to the current time starts it after the
// events already queued for this instant.
func (in *Injector) Schedule(f Fault) (int, error) {
	if err := in.validate(&f); err != nil {
		return 0, err
	}
	delay := f.At - in.eng.Now()
	if delay < 0 {
		return 0, fmt.Errorf("fault: at=%v is in the past (now %v)", f.At, in.eng.Now())
	}
	in.nextID++
	s := &scheduled{id: in.nextID, f: f}
	if f.Kind == Partition {
		s.group = make(map[phys.NodeID]bool, len(f.Group))
		for _, id := range f.Group {
			s.group[id] = true
		}
	}
	in.faults = append(in.faults, s)
	in.eng.After(delay, func() { in.activate(s) })
	if f.Duration > 0 {
		in.eng.After(delay+f.Duration, func() { in.deactivate(s) })
	}
	return s.id, nil
}

// activate brings a scheduled fault into force.
func (in *Injector) activate(s *scheduled) {
	if s.state != Pending {
		return
	}
	s.state = Active
	in.active++
	if in.active == 1 {
		in.hook(true)
	}
	in.emitTransition(s, "fault-active")
	if s.f.Kind == NodeCrash {
		if n, ok := in.nodes[s.f.Node]; ok {
			n.Crash()
		}
	}
}

// deactivate ends a fault window; a crashed node reboots.
func (in *Injector) deactivate(s *scheduled) {
	if s.state != Active {
		return
	}
	s.state = Done
	in.active--
	if in.active == 0 {
		in.hook(false)
	}
	in.emitTransition(s, "fault-clear")
	if s.f.Kind == NodeCrash {
		if n, ok := in.nodes[s.f.Node]; ok {
			n.Reboot()
		}
	}
}

// Faults lists every scheduled fault in ID order.
func (in *Injector) Faults() []Status {
	out := make([]Status, 0, len(in.faults))
	for _, s := range in.faults {
		out = append(out, Status{ID: s.id, Fault: s.f, State: s.state})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// effect is the medium hook: it folds every active link-level fault
// into one FaultEffect for a delivery from -> to on channel.
func (in *Injector) effect(from, to phys.NodeID, channel int) medium.FaultEffect {
	var eff medium.FaultEffect
	for _, s := range in.faults {
		if s.state != Active {
			continue
		}
		f := &s.f
		switch f.Kind {
		case LinkBlackout:
			if samePair(f.A, f.B, from, to) {
				eff.Drop = true
			}
		case LinkDegrade:
			if samePair(f.A, f.B, from, to) {
				eff.ExtraLossDB += f.ExtraLossDB
			}
		case Jam:
			if f.Channel == 0 || f.Channel == channel {
				eff.Corrupt = true
			}
		case Partition:
			if s.group[from] != s.group[to] {
				eff.Drop = true
			}
		}
	}
	return eff
}

// rxCorrupt is the per-node MAC hook for burst corruption.
func (in *Injector) rxCorrupt(to phys.NodeID) bool {
	for _, s := range in.faults {
		if s.state != Active || s.f.Kind != CorruptBurst || s.f.Node != to {
			continue
		}
		if in.rng.Bool(s.f.Prob) {
			return true
		}
	}
	return false
}

// samePair reports whether {a,b} == {x,y} regardless of direction.
func samePair(a, b, x, y phys.NodeID) bool {
	return (a == x && b == y) || (a == y && b == x)
}
