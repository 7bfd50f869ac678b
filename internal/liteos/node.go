// Package liteos models the node-side operating system substrate the
// paper builds on: LiteOS 1.0 on MicaZ-class hardware. It assembles the
// per-node component stack (radio, MAC, port-based stack, kernel
// neighbor table with beaconing), models the mote's RAM/flash budget,
// implements the process abstraction LiteView commands run under, the
// new parameter-passing system call the paper adds, and the on-demand
// event log LiteOS provides for understanding system dynamics.
package liteos

import (
	"errors"
	"fmt"

	"liteview/internal/energy"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
)

// MicaZ hardware budget.
const (
	// RAMBytes is the Atmega128's 4 KB of static RAM.
	RAMBytes = 4 * 1024
	// FlashBytes is the 128 KB programmable flash.
	FlashBytes = 128 * 1024
	// KernelRAM is the share of RAM the kernel itself occupies
	// (threads table, neighbor table, stack buffers).
	KernelRAM = 1536
	// KernelFlash is the kernel's flash footprint.
	KernelFlash = 30 * 1024
)

// Config describes one node of a deployment.
type Config struct {
	// ID is the 802.15.4 short address.
	ID phys.NodeID
	// Name is the IP-convention node name, e.g. "192.168.0.1".
	Name string
	// Dir is the LiteOS file-tree mount, e.g. "/sn01".
	Dir string
	// Pos is the physical position in meters.
	Pos phys.Position
	// LPL duty-cycles the node's radio (mac.Config.LPL).
	LPL bool
}

// Channel is the 802.15.4 channel every node boots on: mid-band,
// matching the paper's sample output.
const Channel = 17

// Node is one simulated mote: hardware, kernel state, and processes.
type Node struct {
	eng *sim.Engine
	cfg Config

	rad   *radio.Radio
	mac   *mac.MAC
	stack *stack.Stack
	nbr   *neighbor.Service
	log   *EventLog
	meter *energy.Meter

	paramBuf string

	nextPID  int
	procs    map[int]*Process
	binaries map[string]*Binary

	ramUsed   int
	flashUsed int

	// Crash/reboot lifecycle (driven by internal/fault).
	alive       bool
	bootAt      sim.Time
	beaconWasOn bool
	crashHooks  []func()
	rebootHooks []func()

	// tel publishes kernel-side link-state observations (nil = off).
	tel *telemetry.Recorder
}

// NewNode builds a node and attaches it to the medium. The neighbor
// beacon service is created but not started; call Node.Neighbors().
// Start() when the deployment wants discovery running.
func NewNode(eng *sim.Engine, med *medium.Medium, cfg Config) (*Node, error) {
	if cfg.Name == "" {
		return nil, errors.New("liteos: node needs a name")
	}
	rad, err := radio.New(Channel)
	if err != nil {
		return nil, fmt.Errorf("liteos: node %s: %w", cfg.Name, err)
	}
	n := &Node{
		eng:      eng,
		cfg:      cfg,
		rad:      rad,
		log:      NewEventLog(eventLogCap),
		procs:    make(map[int]*Process),
		binaries: make(map[string]*Binary),
		alive:    true,
	}
	var st *stack.Stack
	macCfg := mac.DefaultConfig()
	macCfg.LPL = cfg.LPL
	m, err := mac.New(eng, med, rad, cfg.ID, cfg.Pos, macCfg,
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		return nil, fmt.Errorf("liteos: node %s: %w", cfg.Name, err)
	}
	st = stack.New(eng, m)
	n.mac = m
	n.stack = st
	nbr, err := neighbor.NewService(eng, st, neighbor.NewTable(neighbor.DefaultCapacity), cfg.Name)
	if err != nil {
		return nil, fmt.Errorf("liteos: node %s: %w", cfg.Name, err)
	}
	n.nbr = nbr
	// Close the link-estimation loop: every unicast outcome the MAC sees
	// feeds the kernel neighbor table's delivery EWMA. When telemetry is
	// attached, the updated estimate is published as a link-state event —
	// the per-link PRR/ETX/suspect signal the live fleet view renders.
	m.SetTxObserver(func(dst phys.NodeID, err error) {
		nbr.Table().ObserveTxResult(dst, err == nil, eng.Now())
		if n.tel.Recording() {
			if e, known := nbr.Table().Get(dst); known {
				n.tel.Emit(cfg.ID, telemetry.LayerNeighbor, "link-state",
					telemetry.Node("to", dst),
					telemetry.Bool("ok", err == nil),
					telemetry.Float("delivery", e.Delivery),
					telemetry.Float("etx", e.ETX()),
					telemetry.Float("prr", e.PRR),
					telemetry.Bool("suspect", e.Suspect))
			}
		}
	})
	n.meter = energy.Attach(eng, rad, energy.DefaultBatteryJ)
	n.ramUsed = KernelRAM
	n.flashUsed = KernelFlash
	return n, nil
}

// Accessors for the assembled components.

// Engine returns the simulation engine the node runs on.
func (n *Node) Engine() *sim.Engine { return n.eng }

// ID returns the node's short address.
func (n *Node) ID() phys.NodeID { return n.cfg.ID }

// Name returns the node's IP-convention name.
func (n *Node) Name() string { return n.cfg.Name }

// Dir returns the node's LiteOS file-tree mount point.
func (n *Node) Dir() string { return n.cfg.Dir }

// Path returns the full shell path of the node, e.g.
// "/sn01/192.168.0.1".
func (n *Node) Path() string { return n.cfg.Dir + "/" + n.cfg.Name }

// Position returns the node's location.
func (n *Node) Position() phys.Position { return n.cfg.Pos }

// Radio returns the node's CC2420 model.
func (n *Node) Radio() *radio.Radio { return n.rad }

// MAC returns the node's link layer.
func (n *Node) MAC() *mac.MAC { return n.mac }

// Stack returns the node's port-based communication stack.
func (n *Node) Stack() *stack.Stack { return n.stack }

// Neighbors returns the kernel neighborhood service.
func (n *Node) Neighbors() *neighbor.Service { return n.nbr }

// SetTelemetry points the node's kernel-side instrumentation (neighbor
// link-state publishing) at a recorder; nil detaches.
func (n *Node) SetTelemetry(rec *telemetry.Recorder) { n.tel = rec }

// Log returns the node's event log.
func (n *Node) Log() *EventLog { return n.log }

// Energy returns the node's battery meter.
func (n *Node) Energy() *energy.Meter { return n.meter }

// System calls. On real LiteOS these cross from a user process into the
// kernel; here they are methods, but LiteView code only touches kernel
// state through them so the layering survives.

// SysSetParamBuffer stores the parameter string the runtime controller
// prepared for the next process start (the paper's new system call for
// passing runtime parameters).
func (n *Node) SysSetParamBuffer(params string) { n.paramBuf = params }

// SysParamBuffer returns the current parameter buffer. An empty buffer
// is the paper's leading "\0" case.
func (n *Node) SysParamBuffer() string { return n.paramBuf }

// SysNeighborTable exposes the kernel neighbor table to processes,
// mirroring the kernel service LiteView reads via system calls (or, in
// the paper, sometimes by direct memory access).
func (n *Node) SysNeighborTable() *neighbor.Table { return n.nbr.Table() }

// SysLogEvent appends to the node's event log when logging is enabled.
func (n *Node) SysLogEvent(tag, format string, args ...any) {
	n.log.Append(n.eng.Now(), tag, fmt.Sprintf(format, args...))
}

// Crash/reboot lifecycle. Real motes power-fail: every byte of RAM —
// processes, parameter buffer, neighbor table, event log, MAC state —
// is gone, and the radio goes dark until the next boot.

// Alive reports whether the node is powered up. No command reports it;
// the crash/reboot oracle TestLPLDutyCycleEquivalence and the fault
// tests read a node's power state through it.
func (n *Node) Alive() bool { return n.alive }

// Uptime returns the virtual time since the node's last boot.
func (n *Node) Uptime() sim.Time { return n.eng.Now() - n.bootAt }

// OnCrash registers fn to run at every crash, after the kernel has torn
// down. The controller uses this to drop in-flight command state.
func (n *Node) OnCrash(fn func()) { n.crashHooks = append(n.crashHooks, fn) }

// OnReboot registers fn to run at every reboot, once the kernel is back
// up. The controller uses this to re-register with the workstation side.
func (n *Node) OnReboot(fn func()) { n.rebootHooks = append(n.rebootHooks, fn) }

// Crash power-fails the node: kills every process, wipes RAM-resident
// kernel state, resets the link layer, and turns the radio off. A crash
// of an already-dead node is a no-op.
func (n *Node) Crash() {
	if !n.alive {
		return
	}
	n.alive = false
	for _, pid := range n.Processes() {
		if p, ok := n.procs[pid]; ok {
			_ = p.Exit()
		}
	}
	n.paramBuf = ""
	n.log.Clear()
	n.beaconWasOn = n.nbr.Running()
	n.nbr.Stop()
	n.nbr.Table().Clear()
	n.mac.Reset()
	n.rad.SetState(radio.Off)
	for _, fn := range n.crashHooks {
		fn()
	}
}

// Reboot cold-boots a crashed node: the radio comes back up listening,
// the beacon service restarts if it was running at crash time (it is
// part of the boot image), and reboot hooks fire. Rebooting a live node
// is a no-op.
func (n *Node) Reboot() {
	if n.alive {
		return
	}
	n.alive = true
	n.bootAt = n.eng.Now()
	n.rad.SetState(radio.RX)
	n.mac.Boot()
	if n.beaconWasOn {
		n.nbr.Start()
	}
	for _, fn := range n.rebootHooks {
		fn()
	}
}

// RAMUsed returns the bytes of static RAM currently accounted.
func (n *Node) RAMUsed() int { return n.ramUsed }

// RAMFree returns the remaining RAM budget.
func (n *Node) RAMFree() int { return RAMBytes - n.ramUsed }

// FlashUsed returns the bytes of program flash currently accounted.
func (n *Node) FlashUsed() int { return n.flashUsed }

// FlashFree returns the remaining flash budget.
func (n *Node) FlashFree() int { return FlashBytes - n.flashUsed }
