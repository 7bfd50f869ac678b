// Package testbed assembles whole simulated deployments: engines,
// medium, nodes with IP-convention names, and the routing protocols
// attached to every node. It reproduces the paper's experimental
// setups — a thirty-node testbed for one-hop commands and an eight-hop
// line for the traceroute experiments — and supplies the position
// oracle geographic forwarding needs.
package testbed

import (
	"errors"
	"fmt"
	"io"

	"liteview/internal/core"
	"liteview/internal/fault"
	"liteview/internal/liteos"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Options configures a deployment.
type Options struct {
	// Seed fixes engine and radio-map randomness (same seed, same
	// packet trace).
	Seed uint64
	// ShadowSigma overrides the model's shadowing in dB; negative
	// keeps the model default, zero disables shadowing.
	ShadowSigma float64
	// AsymSigma overrides the per-direction asymmetry in dB; negative
	// keeps the default, zero disables it.
	AsymSigma float64
	// Channel is the initial radio channel (0 = 17).
	Channel int
	// NeighborCapacity bounds each kernel neighbor table (0 = default).
	NeighborCapacity int
	// LPL enables low-power listening (duty cycling) on every node.
	LPL bool
	// BeaconPeriod overrides the neighbor beacon interval (0 keeps the
	// default; LPL deployments want long periods — each broadcast costs
	// a full sleep interval of repeats).
	BeaconPeriod sim.Time
	// ShardMedium partitions the radio medium into finite spatial cells
	// (medium.SetSharding): ring-bounded fan-outs and interference
	// scans for large deployments.
	ShardMedium bool
}

// DefaultOptions keeps the propagation model defaults.
func DefaultOptions(seed uint64) Options {
	return Options{Seed: seed, ShadowSigma: -1, AsymSigma: -1}
}

// Testbed is an assembled deployment.
type Testbed struct {
	Eng   *sim.Engine
	Med   *medium.Medium
	Model *phys.Model
	Nodes []*liteos.Node

	opt    Options
	byName map[string]*liteos.Node
	// routers[port][node] holds attached protocol instances.
	routers map[byte]map[phys.NodeID]*routing.Router
	// injector is the lazily created fault injector.
	injector *fault.Injector
	// tel is the lazily created telemetry recorder; ctls and wss track
	// installed controllers and workstations so late-created components
	// get wired into it too.
	tel  *telemetry.Recorder
	ctls []*core.Controller
	wss  []*core.Workstation
}

// build creates nodes at the given positions with paper-style names:
// node i (1-based) is "192.168.0.i" mounted at "/sn0i". Deployments
// beyond the paper's scale roll into further /24s: node 251 is
// "192.168.1.1", node 502 is "192.168.2.2", and so on (see nodeName).
// maxNodes bounds deployment size: 250 hosts in each of 250 /24
// subnets, comfortably inside the 16-bit 802.15.4 address space.
const maxNodes = 250 * 250

// ErrTooManyNodes is returned (wrapped) when a topology exceeds
// maxNodes; callers reject over-cap deployments with errors.Is.
var ErrTooManyNodes = errors.New("testbed: deployment exceeds the address space")

// nodeName returns the management name of 1-based node x. The paper's
// 30-mote testbed lives in 192.168.0.0/24; larger deployments continue
// into 192.168.1.0/24 and beyond, 250 hosts per subnet. Hosts are
// numbered 1..250 within each subnet — the arithmetic is over x−1 so a
// subnet's 250th node stays in it (node 500 is "192.168.1.250", not an
// invalid host 0 in the next /24).
func nodeName(x int) string {
	return fmt.Sprintf("192.168.%d.%d", (x-1)/250, (x-1)%250+1)
}

func build(positions []phys.Position, opt Options) (*Testbed, error) {
	if len(positions) == 0 {
		return nil, errors.New("testbed: no nodes")
	}
	if len(positions) > maxNodes {
		return nil, fmt.Errorf("%w: %d nodes, max %d (250 hosts in each of 250 /24 subnets)",
			ErrTooManyNodes, len(positions), maxNodes)
	}
	eng := sim.NewEngine(opt.Seed)
	model := phys.DefaultModel(opt.Seed)
	if opt.ShadowSigma >= 0 {
		model.ShadowSigma = opt.ShadowSigma
	}
	if opt.AsymSigma >= 0 {
		model.AsymSigma = opt.AsymSigma
	}
	med := medium.New(eng, model)
	if opt.ShardMedium {
		med.SetSharding(medium.Sharding{})
	}
	tb := &Testbed{
		Eng:     eng,
		Med:     med,
		Model:   model,
		opt:     opt,
		byName:  make(map[string]*liteos.Node),
		routers: make(map[byte]map[phys.NodeID]*routing.Router),
	}
	for i, pos := range positions {
		id := phys.NodeID(i + 1)
		cfg := liteos.Config{
			ID:               id,
			Name:             nodeName(i + 1),
			Dir:              fmt.Sprintf("/sn%02d", i+1),
			Pos:              pos,
			Channel:          opt.Channel,
			NeighborCapacity: opt.NeighborCapacity,
		}
		if opt.LPL {
			macCfg := mac.DefaultConfig()
			macCfg.LPL = true
			cfg.MAC = macCfg
		}
		n, err := liteos.NewNode(eng, med, cfg)
		if err != nil {
			return nil, err
		}
		if opt.BeaconPeriod > 0 {
			if err := n.Neighbors().SetPeriod(opt.BeaconPeriod); err != nil {
				return nil, err
			}
		}
		tb.Nodes = append(tb.Nodes, n)
		tb.byName[cfg.Name] = n
	}
	return tb, nil
}

// Custom builds a deployment with explicit node positions: node i
// (0-based in positions, 1-based as a NodeID) sits at positions[i].
// Topologies the canned generators cannot express — e.g. the diamond
// the recovery benchmark uses to guarantee an alternate path — are
// built this way.
func Custom(positions []phys.Position, opt Options) (*Testbed, error) {
	return build(positions, opt)
}

// Line builds n nodes in a straight line with the given spacing in
// meters: the paper's eight-hop-diameter topology is Line(9, spacing).
func Line(n int, spacing float64, opt Options) (*Testbed, error) {
	if n < 1 {
		return nil, errors.New("testbed: line needs at least one node")
	}
	positions := make([]phys.Position, n)
	for i := range positions {
		positions[i] = phys.Position{X: float64(i) * spacing}
	}
	return build(positions, opt)
}

// Grid builds rows×cols nodes with the given spacing.
func Grid(rows, cols int, spacing float64, opt Options) (*Testbed, error) {
	if rows < 1 || cols < 1 {
		return nil, errors.New("testbed: grid needs positive dimensions")
	}
	positions := make([]phys.Position, 0, rows*cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			positions = append(positions, phys.Position{X: float64(c) * spacing, Y: float64(r) * spacing})
		}
	}
	return build(positions, opt)
}

// Random scatters n nodes uniformly over a width×height field using the
// seed, so a deployment is reproducible.
func Random(n int, width, height float64, opt Options) (*Testbed, error) {
	if n < 1 {
		return nil, errors.New("testbed: need at least one node")
	}
	rng := sim.NewRand(opt.Seed ^ 0x746f706f) // independent of engine streams
	positions := make([]phys.Position, n)
	for i := range positions {
		positions[i] = phys.Position{X: rng.Float64() * width, Y: rng.Float64() * height}
	}
	return build(positions, opt)
}

// Node returns the i-th node (0-based index).
func (tb *Testbed) Node(i int) *liteos.Node { return tb.Nodes[i] }

// ByID resolves a node by short address: node i (0-based) has ID i+1.
func (tb *Testbed) ByID(id phys.NodeID) (*liteos.Node, bool) {
	if id == 0 || int(id) > len(tb.Nodes) {
		return nil, false
	}
	return tb.Nodes[id-1], true
}

// ByName resolves a node by its IP-convention name.
func (tb *Testbed) ByName(name string) (*liteos.Node, bool) {
	n, ok := tb.byName[name]
	return n, ok
}

// Locator returns the position oracle geographic forwarding uses.
func (tb *Testbed) Locator() routing.Locator {
	return func(id phys.NodeID) (phys.Position, bool) {
		n, ok := tb.ByID(id)
		if !ok {
			return phys.Position{}, false
		}
		return n.Position(), true
	}
}

// StartBeacons starts the neighbor service on every node.
func (tb *Testbed) StartBeacons() {
	for _, n := range tb.Nodes {
		n.Neighbors().Start()
	}
}

// WarmUp starts beacons (if not already) and runs the simulation for d
// so that neighbor tables and routing gradients converge.
func (tb *Testbed) WarmUp(d sim.Time) {
	tb.StartBeacons()
	tb.Eng.RunUntil(tb.Eng.Now() + d)
}

// AttachGeographic attaches geographic forwarding to every node on its
// default port and records the instances.
func (tb *Testbed) AttachGeographic(cfg routing.Config) error {
	loc := tb.Locator()
	for _, n := range tb.Nodes {
		r, err := routing.NewGeographic(n.Engine(), n.Stack(), n.SysNeighborTable(), loc, cfg)
		if err != nil {
			return err
		}
		tb.record(r, n.ID())
	}
	return nil
}

// AttachFlooding attaches the flooding protocol to every node.
func (tb *Testbed) AttachFlooding(cfg routing.Config) error {
	for _, n := range tb.Nodes {
		r, err := routing.NewFlooding(n.Engine(), n.Stack(), n.SysNeighborTable(), cfg)
		if err != nil {
			return err
		}
		tb.record(r, n.ID())
	}
	return nil
}

// AttachOnDemand attaches the on-demand (AODV-style) protocol to every
// node.
func (tb *Testbed) AttachOnDemand(cfg routing.Config) error {
	for _, n := range tb.Nodes {
		r, err := routing.NewOnDemand(n.Engine(), n.Stack(), n.SysNeighborTable(), cfg)
		if err != nil {
			return err
		}
		tb.record(r, n.ID())
	}
	return nil
}

// AttachTree attaches a collection tree rooted at root to every node.
func (tb *Testbed) AttachTree(root phys.NodeID, cfg routing.Config) error {
	for _, n := range tb.Nodes {
		r, err := routing.NewTree(n.Engine(), n.Stack(), n.SysNeighborTable(), root, cfg)
		if err != nil {
			return err
		}
		tb.record(r, n.ID())
	}
	return nil
}

func (tb *Testbed) record(r *routing.Router, id phys.NodeID) {
	m := tb.routers[r.Port()]
	if m == nil {
		m = make(map[phys.NodeID]*routing.Router)
		tb.routers[r.Port()] = m
	}
	m[id] = r
	if tb.tel != nil {
		r.SetTelemetry(tb.tel)
	}
}

// Telemetry returns the deployment's telemetry recorder, creating and
// wiring it into every layer on first use. The recorder starts stopped:
// call Start on it to record. Wiring and recording are both
// non-perturbing — emission draws no randomness and schedules no
// events — so a run with telemetry produces the same packet trace as
// one without (see the determinism regression in internal/telemetry).
func (tb *Testbed) Telemetry() *telemetry.Recorder {
	if tb.tel == nil {
		tb.tel = telemetry.NewRecorder(tb.Eng)
		tb.Med.SetTelemetry(tb.tel)
		for _, n := range tb.Nodes {
			n.MAC().SetTelemetry(tb.tel)
			n.Stack().SetTelemetry(tb.tel)
			n.SetTelemetry(tb.tel)
		}
		// Map order is irrelevant here: wiring just sets a pointer.
		for _, byNode := range tb.routers {
			for _, r := range byNode {
				r.SetTelemetry(tb.tel)
			}
		}
		for _, c := range tb.ctls {
			c.SetTelemetry(tb.tel)
		}
		for _, ws := range tb.wss {
			ws.SetTelemetry(tb.tel)
		}
		if tb.injector != nil {
			tb.injector.SetTelemetry(tb.tel)
		}
	}
	return tb.tel
}

// Router returns the protocol instance on the given port at node id.
func (tb *Testbed) Router(port byte, id phys.NodeID) (*routing.Router, bool) {
	r, ok := tb.routers[port][id]
	return r, ok
}

// Routers returns every attached protocol instance at node id, sorted
// by port (a node may run several protocols side by side).
func (tb *Testbed) Routers(id phys.NodeID) []*routing.Router {
	var out []*routing.Router
	for port := 0; port < 256; port++ {
		if r, ok := tb.routers[byte(port)][id]; ok {
			out = append(out, r)
		}
	}
	return out
}

// FaultInjector returns the deployment's fault injector, creating it on
// first use. Faults draw from a stream derived from the deployment seed
// but independent of the engine's, so installing the injector does not
// change a fault-free run's packet trace.
func (tb *Testbed) FaultInjector() *fault.Injector {
	if tb.injector == nil {
		tb.injector = fault.New(tb.Eng, tb.Med, tb.Nodes, tb.opt.Seed)
		if tb.tel != nil {
			tb.injector.SetTelemetry(tb.tel)
		}
	}
	return tb.injector
}

// RecordTrace streams every transmission on the medium to w as CSV
// (start_us,end_us,from,channel,tx_dbm,bytes) until the returned stop
// function is called. One recorder at a time.
func (tb *Testbed) RecordTrace(w io.Writer) (stop func()) {
	fmt.Fprintln(w, "start_us,end_us,from,channel,tx_dbm,bytes")
	tb.Med.SetTap(func(r medium.TapRecord) {
		fmt.Fprintf(w, "%d,%d,%d,%d,%.1f,%d\n",
			r.Start.Microseconds(), r.End.Microseconds(), r.From, r.Channel, r.TxDBm, r.Bytes)
	})
	return func() { tb.Med.SetTap(nil) }
}

// Run advances the simulation by d.
func (tb *Testbed) Run(d sim.Time) {
	tb.Eng.RunUntil(tb.Eng.Now() + d)
}
