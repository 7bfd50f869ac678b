// Package medium models the shared wireless broadcast medium. Every
// frame a mote transmits is broadcast: the medium computes, for each
// other attached node tuned to the same channel, the received power,
// the interference from temporally overlapping transmissions, and draws
// packet corruption from the SINR-dependent packet-reception-rate curve.
//
// The medium is also what the MAC's clear channel assessment (CCA)
// samples: EnergyDBmAt reports the strongest in-band signal at a node,
// exactly the quantity the CC2420's energy-detect CCA thresholds.
package medium

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strconv"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// RxInfo carries the physical-layer metadata the receiver's radio chip
// exposes for a received frame. LiteView's whole purpose is surfacing
// these numbers to the end user.
type RxInfo struct {
	// From is the transmitter.
	From phys.NodeID
	// RxPowerDBm is the received signal power.
	RxPowerDBm float64
	// RSSI is the CC2420 RSSI register value for the frame.
	RSSI int
	// LQI is the CC2420 correlation value (50..110).
	LQI int
	// SNRDB is the signal-to-interference-plus-noise ratio in dB.
	SNRDB float64
	// Corrupted reports that the frame took bit errors (the MAC's CRC
	// check will fail).
	Corrupted bool
	// Verified reports that the frame arrived intact and passed the
	// frame check the medium ran once, at transmit time (SetFrameCheck):
	// the receiver may parse it without checking it again. It is false
	// for corrupted frames, for frames that failed the check, and when
	// no check is installed.
	Verified bool
	// At is the delivery (end-of-airtime) instant.
	At sim.Time
}

// Receiver is the contract a node's MAC layer implements to be attached
// to the medium.
type Receiver interface {
	// NodeID returns the node's 802.15.4 short address.
	NodeID() phys.NodeID
	// Position returns the node's physical location.
	Position() phys.Position
	// RadioState returns the transceiver state at the current instant.
	RadioState() radio.State
	// Channel returns the currently tuned 802.15.4 channel.
	Channel() int
	// PowerLevel returns the programmed CC2420 PA_LEVEL (3..31).
	PowerLevel() int
	// OnFrame is invoked when a frame's airtime completes while this
	// node is listening on the frame's channel. The frame slice is a
	// read-only view shared by every receiver of the broadcast (and by
	// the medium itself), valid only for the duration of the call: an
	// implementation that mutates the bytes must do so on its own copy
	// (the MAC flips bits of a corrupted frame in a per-MAC scratch
	// buffer), and one that retains them past its return must copy them.
	OnFrame(frame []byte, info RxInfo)
}

// Stats counts medium-level packet outcomes.
type Stats struct {
	// Transmitted counts frames put on the air.
	Transmitted uint64
	// Delivered counts (node, frame) deliveries that arrived intact.
	Delivered uint64
	// Corrupted counts deliveries that arrived with bit errors.
	Corrupted uint64
	// MissedNotListening counts deliveries lost because the would-be
	// receiver was transmitting or off when the frame ended.
	MissedNotListening uint64
	// BelowSensitivity counts potential deliveries under the radio
	// sensitivity floor (never detected at all). Nodes outside a
	// transmitter's candidate set — outside its detectability ring, or
	// with gain so low that even full transmit power stays under
	// SensitivityDBm − FadeMarginDB — are counted here in bulk, without
	// a per-receiver delivery outcome.
	BelowSensitivity uint64
	// InjectedDrops counts deliveries suppressed by the fault hook
	// (blackouts and partitions swallow frames without a trace).
	InjectedDrops uint64
	// WrongChannel counts deliveries skipped because the would-be
	// receiver was tuned elsewhere.
	WrongChannel uint64
}

// DeliveryOutcome classifies what happened to one (frame, receiver)
// pair when the frame's airtime completed.
type DeliveryOutcome int

// Per-receiver delivery outcomes, from best to worst.
const (
	// OutcomeDelivered: the frame arrived intact.
	OutcomeDelivered DeliveryOutcome = iota
	// OutcomeCorrupted: the frame arrived with bit errors (the MAC's
	// CRC check will fail). TapDelivery.Cause says why.
	OutcomeCorrupted
	// OutcomeWrongChannel: the receiver was tuned to another channel.
	OutcomeWrongChannel
	// OutcomeRadioOff: the receiver was not in RX (off or transmitting)
	// when the frame ended.
	OutcomeRadioOff
	// OutcomeBelowSensitivity: the signal arrived under the radio's
	// sensitivity floor and was never detected.
	OutcomeBelowSensitivity
	// OutcomeInjectedDrop: an active fault (blackout, partition)
	// swallowed the frame.
	OutcomeInjectedDrop
)

// String returns the outcome's wire name (used in telemetry exports).
func (o DeliveryOutcome) String() string {
	switch o {
	case OutcomeDelivered:
		return "delivered"
	case OutcomeCorrupted:
		return "corrupted"
	case OutcomeWrongChannel:
		return "wrong-channel"
	case OutcomeRadioOff:
		return "radio-off"
	case OutcomeBelowSensitivity:
		return "below-sensitivity"
	case OutcomeInjectedDrop:
		return "injected-drop"
	}
	return "unknown"
}

// TapDelivery describes one per-receiver delivery outcome — the answer
// to "who actually heard this frame, and if not, why not".
type TapDelivery struct {
	// TxSeq ties the outcome back to the TapRecord with the same Seq.
	TxSeq uint64
	// From and To are the transmitter and the would-be receiver.
	From, To phys.NodeID
	// Channel is the transmission's 802.15.4 channel.
	Channel int
	// Outcome classifies the delivery.
	Outcome DeliveryOutcome
	// Cause refines OutcomeCorrupted: "capture" (lost a co-channel
	// collision), "per" (SINR packet-error draw), "jam" (jammed
	// channel), "injected" (test loss hook). Empty otherwise.
	Cause string
	// RxPowerDBm and SINRDB are the received power and
	// signal-to-interference-plus-noise ratio; only meaningful for
	// outcomes where the frame was demodulated (delivered/corrupted).
	RxPowerDBm, SINRDB float64
	// RSSI and LQI are the radio register values for demodulated frames.
	RSSI, LQI int
	// At is the delivery instant (end of airtime).
	At sim.Time
}

// FaultEffect is what an injected fault does to one delivery. Effects
// compose: a degraded link loses ExtraLossDB of signal before the
// sensitivity check, a jammed channel corrupts whatever still decodes,
// and a blackout or partition drops the frame outright.
type FaultEffect struct {
	// ExtraLossDB is additional path loss applied to this delivery. It
	// is expected to be ≥ 0 (internal/fault rejects negative values):
	// the assessment skips the interference scan of a receiver whose
	// fault-free power is already under the sensitivity floor. A
	// negative value is still exact — deliver then runs the scan it
	// skipped — only slower.
	ExtraLossDB float64
	// Drop suppresses the delivery entirely (the receiver hears nothing).
	Drop bool
	// Corrupt forces bit errors even if the SINR draw succeeded.
	Corrupt bool
}

type transmission struct {
	from phys.NodeID
	// fromSlot is the transmitter's attach slot (its row of the link
	// table).
	fromSlot int32
	pos      phys.Position
	channel  int
	txDBm    float64
	start    sim.Time
	end      sim.Time
	frame    []byte
	// verified caches the frame check's verdict on frame, taken once at
	// transmit time for every receiver.
	verified bool
	// cand is the candidate set (attach slots) captured at transmit
	// time (shared with the reachability cache; read-only).
	cand []int32
	// far is how many attached nodes were excluded as unreachable when
	// the candidate set was captured; they are bulk-counted as
	// below-sensitivity at delivery.
	far uint64
	// origin is the cell of pos: the transmission is registered in the
	// ledgers of all cells within the ring of it, and cells created
	// later (attach, migration) re-derive membership from it.
	origin cellKey
	// pruned marks a transmission prune decided to drop, so per-cell
	// ledgers can be compacted independently of slice identity.
	pruned bool
	// seq is the medium-wide transmission number, carried here so the
	// delivery event needs only the transmission pointer as its payload.
	seq uint64
}

// txPoolCap bounds the transmission free list; the live set is bounded
// by the interference-overlap window, so the pool stays small too.
const txPoolCap = 1024

// FadeMarginDB is the headroom the candidate sets keep above the radio
// sensitivity floor: a node is a candidate when the link
// gain at maximum transmit power clears SensitivityDBm − FadeMarginDB.
// Fault-injected extra loss only ever weakens a signal, so nodes under
// the floor can never demodulate a frame and are skipped without a
// per-receiver outcome.
const FadeMarginDB = 6.0

// maxTxDBm is the strongest power any attached radio can transmit at;
// it bounds the received power of every link through the static gain.
var maxTxDBm = radio.PowerDBm(radio.MaxPowerLevel)

// reachability is one transmitter's precomputed fan-out: the slots of
// the attached nodes (in stable attach order) whose cached link gain at
// maximum transmit power clears the sensitivity floor minus the fade
// margin, plus the count of nodes excluded as unreachable.
type reachability struct {
	cand []int32
	far  uint64
}

// slot is one attach slot: the node bound to it and where the medium
// last placed it (Attach, NodeMoved). A slot belongs to one node ID for
// the medium's lifetime; Detach vacates it (rx = nil) and re-attaching
// the same ID fills it again, so a slot captured by an in-flight
// transmission never names a different node.
type slot struct {
	rx  Receiver
	id  phys.NodeID
	pos phys.Position
}

// link is one entry of a cell's dense link table: the static budget of
// a directed link and a memo of its received power in milliwatts at the
// last transmit power it was converted for. A budget is unset while its
// path loss is NaN (PathLoss clamps distance to 1 m, so no real budget
// is); the memo is unset while txDBm is NaN.
type link struct {
	b         phys.Budget
	txDBm, mw float64
}

var unsetLink = link{b: phys.Budget{PathLossDB: math.NaN()}, txDBm: math.NaN()}

// linkKeys holds the pre-interned metric names of one directed link, so
// report does not rebuild three strings on every reception.
type linkKeys struct {
	delivered, lost, lqi string
}

// prrSlot is one entry of the direct-mapped PRR memo: the exact SINR
// bits and frame length it holds the packet reception rate for. PRR is
// a pure function, so a hit is bit-identical to recomputation; n == 0
// marks an unset slot (the medium never carries an empty frame).
type prrSlot struct {
	sinrBits uint64
	n        int
	p        float64
}

// prrSlotsPerNode sizes the PRR memo from the deployment: with
// interference-free links each receiver sees one SINR per (transmitter,
// power, frame length), so the working set grows with the node count.
// Sizing per node keeps a small tenant's memo small; prrMaxSlots caps it
// at 1.5 MiB.
const (
	prrSlotsPerNode = 32
	prrMaxSlots     = 1 << 16
)

// prrMemoSize returns the memo size for n attached nodes: a power of
// two, so a multiplicative hash's top bits index it.
func prrMemoSize(n int) int {
	size := 64
	for size < n*prrSlotsPerNode && size < prrMaxSlots {
		size <<= 1
	}
	return size
}

// Medium is the shared air. It is bound to one engine and one
// propagation model.
type Medium struct {
	eng   *sim.Engine
	model *phys.Model
	rng   *sim.Rand
	// slots holds every node ever attached, indexed by attach slot;
	// slotOf maps an ID to its slot and is read only at API entry
	// (Attach, Detach, NodeMoved, Transmit, EnergyDBmAt), never per
	// (transmission, receiver) pair.
	slots  []slot
	slotOf map[phys.NodeID]int32
	order  []int32 // attached slots in attach order
	// active holds transmissions that may still overlap a frame in
	// flight; pruned lazily.
	active []*transmission
	// txPool recycles transmission structs (and their frame buffers)
	// once prune retires them: a pruned transmission's delivery has
	// fired and nothing below the medium may retain the shared frame
	// past its OnFrame callback (DESIGN §15), so the buffer is free for
	// reuse. reclaim is prune's scratch list of the cycle's casualties.
	txPool  []*transmission
	reclaim []*transmission
	// deliverCb is the delivery event callback, bound once so Transmit
	// schedules without allocating a closure.
	deliverCb func(any)
	stats     Stats
	// lossFn, when set, force-drops deliveries (failure injection for
	// tests: returning true corrupts the frame at the receiver).
	lossFn func(from, to phys.NodeID, frame []byte) bool
	// faultFn, when set, is consulted per delivery by the fault
	// injector (internal/fault). It is a separate slot from lossFn so
	// tests and the injector can coexist.
	faultFn func(from, to phys.NodeID, channel int) FaultEffect
	// tap, when set, observes every transmission put on the air.
	tap func(TapRecord)
	// deliveryTap, when set, observes every per-receiver delivery
	// outcome.
	deliveryTap func(TapDelivery)
	// txSeq numbers transmissions so delivery outcomes can be joined
	// back to the frame they belong to.
	txSeq uint64
	// tel, when set, receives medium-layer telemetry events.
	tel *telemetry.Recorder
	// reach caches each transmitter's candidate set, indexed by slot;
	// invalidated within the ring on attach, detach and moves, and
	// everywhere on topology changes.
	reach []*reachability
	// grid is the partition into cells (cells.go): membership,
	// interference ledgers and link tables. Unsharded, it is one
	// unbounded cell.
	grid grid
	// links interns per-link metric names, keyed from<<16|to.
	links map[uint32]*linkKeys
	// prr memoises the PRR curve by (SINR bits, frame length), direct
	// mapped; prrShift turns a 64-bit hash into an index. Allocated on
	// first use, sized from the node count, and dropped by Attach when
	// the deployment outgrows it.
	prr      []prrSlot
	prrShift uint
	// frameCheck, when set, verifies a frame's integrity (the MAC's FCS
	// check). Transmit runs it once per transmission and receivers see
	// the verdict as RxInfo.Verified.
	frameCheck func(frame []byte) bool
	// noiseFor/noiseMW/noiseDBm cache the noise floor's mW conversion
	// and that value's own dBm round trip (the interference-free
	// noise-plus-interference level).
	noiseFor float64
	noiseMW  float64
	noiseDBm float64
}

// TapRecord describes one transmission for trace tooling.
type TapRecord struct {
	// Seq is the transmission's medium-wide sequence number; the
	// TapDelivery records for this frame carry it as TxSeq.
	Seq     uint64
	From    phys.NodeID
	Channel int
	TxDBm   float64
	Bytes   int
	Start   sim.Time
	End     sim.Time
}

// SetLossFunc installs a failure-injection hook: any delivery for which
// fn returns true arrives corrupted. Pass nil to remove.
func (m *Medium) SetLossFunc(fn func(from, to phys.NodeID, frame []byte) bool) {
	m.lossFn = fn
}

// SetFaultHook installs the fault injector's per-delivery hook: fn is
// asked what effect, if any, active faults have on a frame from one
// node to another on a channel. Pass nil to remove.
func (m *Medium) SetFaultHook(fn func(from, to phys.NodeID, channel int) FaultEffect) {
	m.faultFn = fn
}

// SetFrameCheck installs the frame integrity check Transmit runs once
// per transmission (nil removes it). The medium cannot import the MAC,
// so the MAC installs its FCS check here; every MAC on a medium installs
// the same one.
func (m *Medium) SetFrameCheck(fn func(frame []byte) bool) { m.frameCheck = fn }

// SetTap installs an observer of every transmission (nil removes it).
func (m *Medium) SetTap(fn func(TapRecord)) { m.tap = fn }

// SetDeliveryTap installs an observer of every per-receiver delivery
// outcome (nil removes it).
func (m *Medium) SetDeliveryTap(fn func(TapDelivery)) { m.deliveryTap = fn }

// SetTelemetry points the medium at a telemetry recorder (nil detaches).
func (m *Medium) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// New returns a medium running on eng with the given propagation model.
func New(eng *sim.Engine, model *phys.Model) *Medium {
	m := &Medium{
		eng:    eng,
		model:  model,
		rng:    eng.Rand().Fork("medium"),
		slotOf: make(map[phys.NodeID]int32),
		links:  make(map[uint32]*linkKeys),
	}
	m.deliverCb = m.deliverEvent
	m.partition(math.Inf(1))
	return m
}

// deliverEvent is the AfterArg trampoline for scheduled deliveries.
func (m *Medium) deliverEvent(a any) {
	t := a.(*transmission)
	m.deliver(t)
}

// InvalidateTopology drops the cached link budgets and reachability
// sets. Call it after mutating the propagation model; channel and power
// changes need no invalidation (budgets are frequency- and
// power-independent), and a single node moving only needs NodeMoved.
func (m *Medium) InvalidateTopology() {
	for _, c := range m.grid.cells {
		for _, rows := range c.rows {
			for j := range rows {
				rows[j] = rows[j][:0]
			}
		}
	}
	clear(m.reach)
}

// NodeMoved tells the medium that one attached node changed position:
// cached link budgets involving it are dropped, it migrates between
// cells if it crossed an edge, and the candidate sets of the
// transmitters within the old and new rings are invalidated. Motes are
// fixed once deployed — this is the workstation walking with the
// operator (MAC.SetPosition calls it). Frames already in flight keep
// the fan-out captured at transmit time; their link budgets are
// recomputed against the new position at delivery.
func (m *Medium) NodeMoved(id phys.NodeID) {
	s, ok := m.slotOf[id]
	if !ok || m.slots[s].rx == nil {
		return // not attached: nothing cached
	}
	old := m.grid.res[s].c.key
	m.grid.purge(s)
	m.invalidateRing(old)
	m.slots[s].pos = m.slots[s].rx.Position()
	if key := m.keyFor(m.slots[s].pos); key != old {
		// A move is not a re-attach: the node keeps its attach sequence,
		// so merged candidate sets still list it in attach order.
		seq := m.grid.res[s].seq
		m.grid.remove(s)
		m.grid.res[s].seq = seq
		m.place(s, key)
		m.invalidateRing(key)
	}
}

// Attach registers a node. Attaching a duplicate ID is an error.
func (m *Medium) Attach(r Receiver) error {
	id := r.NodeID()
	s, known := m.slotOf[id]
	if known && m.slots[s].rx != nil {
		return fmt.Errorf("medium: node %d already attached", id)
	}
	if !known {
		s = int32(len(m.slots))
		m.slots = append(m.slots, slot{id: id})
		m.reach = append(m.reach, nil)
		m.grid.res = append(m.grid.res, residence{})
		m.slotOf[id] = s
		if len(m.prr) < prrMemoSize(len(m.slots)) {
			m.prr = nil // reallocated at the new size on next use
		}
	}
	m.slots[s].rx, m.slots[s].pos = r, r.Position()
	m.order = append(m.order, s)
	key := m.keyFor(m.slots[s].pos)
	m.place(s, key)
	// Nearby transmitters must see the newcomer in their candidate sets;
	// distant ones provably cannot reach it.
	m.invalidateRing(key)
	return nil
}

// Detach removes a node; pending deliveries to it are silently dropped.
// A frame the node already put on the air stays there: it delivers to
// (and interferes at) the remaining nodes, exactly as a frame from a
// mote that lost power mid-transmission would. Its cached budgets go
// with it, so a node that comes back elsewhere inherits none.
func (m *Medium) Detach(id phys.NodeID) {
	s, ok := m.slotOf[id]
	if !ok || m.slots[s].rx == nil {
		return
	}
	m.slots[s].rx = nil
	m.order = slices.DeleteFunc(m.order, func(n int32) bool { return n == s })
	// In-flight transmissions keep their captured candidate sets (which
	// may still name s — deliver drops it as vacant); only future
	// transmissions need rebuilt sets.
	key := m.grid.res[s].c.key
	m.grid.remove(s)
	m.invalidateRing(key)
}

// Nodes returns the number of attached nodes.
func (m *Medium) Nodes() int { return len(m.order) }

// Stats returns a snapshot of the medium counters.
func (m *Medium) Stats() Stats { return m.stats }

// ResetStats zeroes the counters.
func (m *Medium) ResetStats() { m.stats = Stats{} }

// prune drops transmissions that can no longer overlap anything.
// Deliveries (and their SINR scans) run at the *end* of the receiving
// frame, so an ended transmission must be retained while any frame it
// temporally overlapped is still in flight — however long ago it ended.
// The old fixed 10-byte-time horizon silently dropped interferers that
// clipped the start of a long frame, undercounting collisions; the keep
// rule is therefore anchored at the earliest start among undelivered
// transmissions, not at a fixed distance behind now.
func (m *Medium) prune() {
	now := m.eng.Now()
	// minStart is the earliest start among transmissions whose delivery
	// has not fired yet (delivery fires at t.end, so t.end >= now).
	minStart := sim.Time(math.MaxInt64)
	for _, t := range m.active {
		if t.end >= now && t.start < minStart {
			minStart = t.start
		}
	}
	keep := m.active[:0]
	reclaim := m.reclaim[:0]
	for _, t := range m.active {
		// Keep frames still awaiting delivery, and any ended frame that
		// overlapped an undelivered one (o overlaps t iff o.end > t.start,
		// since o started before it ended). Future transmissions start at
		// or after now, so nothing already ended can overlap them.
		if t.end >= now || t.end > minStart {
			keep = append(keep, t)
		} else {
			t.pruned = true
			reclaim = append(reclaim, t)
		}
	}
	// Zero the tail so dropped transmissions can be collected.
	for i := len(keep); i < len(m.active); i++ {
		m.active[i] = nil
	}
	m.active = keep
	if len(reclaim) > 0 {
		// Compact every cell ledger. The keep filter is per-transmission
		// (the pruned flag), so ledgers can be filtered independently of
		// the global list and of one another.
		for _, c := range m.grid.cells {
			kl := c.ledger[:0]
			for _, t := range c.ledger {
				if !t.pruned {
					kl = append(kl, t)
				}
			}
			for i := len(kl); i < len(c.ledger); i++ {
				c.ledger[i] = nil
			}
			c.ledger = kl
		}
	}
	// A pruned transmission's delivery has fired and every ledger
	// reference is compacted away, so its struct — and its frame buffer,
	// which nothing below the medium may retain past OnFrame — goes back
	// to the pool.
	for i, t := range reclaim {
		if len(m.txPool) < txPoolCap {
			frame := t.frame[:0]
			*t = transmission{frame: frame}
			m.txPool = append(m.txPool, t)
		}
		reclaim[i] = nil
	}
	m.reclaim = reclaim[:0]
}

// txBudget returns the static link budget from slot fs → slot ts for
// a transmission whose origin position was captured at fromPos, against
// the receiver's current position toPos. The link tables always
// describe the transmitter's current position — NodeMoved purges them
// on every move — so when fromPos no longer matches (the transmitter
// walked away, or detached, while the frame was in flight) the budget is
// computed directly instead of being read from, or written into, a
// table. Without this check a delivery after a mid-flight move would
// poison the table with a budget computed from the stale captured
// position, and every later transmission on that link would inherit
// it. The cached components are the same deterministic function of the
// endpoints either way, and Budget.Received combines them in the
// model's arithmetic order, so every path produces bit-identical
// received powers.
func (m *Medium) txBudget(fs int32, fromPos phys.Position, ts int32, toPos phys.Position) phys.Budget {
	if m.current(fs, fromPos) {
		if l := m.link(fs, ts, m.grid.res[ts], fromPos, toPos); l != nil {
			return l.b
		}
	}
	return m.model.LinkBudget(m.slots[fs].id, m.slots[ts].id, fromPos, toPos)
}

// current reports whether slot s is attached and was last placed at
// pos: only then may budgets from it be read from or written to a
// table, whose entries from s were all computed from that position.
func (m *Medium) current(s int32, pos phys.Position) bool {
	return m.slots[s].rx != nil && m.slots[s].pos == pos
}

// interfMW returns the power of transmission o at slot ts (residing at
// to, currently at toPos) in milliwatts. On the link table the conversion is
// memoised per link and transmit power, so a repeated pair costs no
// math.Pow; the memo holds exactly the value recomputation gives.
func (m *Medium) interfMW(o *transmission, ts int32, to residence, toPos phys.Position) float64 {
	if m.current(o.fromSlot, o.pos) {
		if l := m.link(o.fromSlot, ts, to, o.pos, toPos); l != nil {
			if l.txDBm != o.txDBm {
				l.txDBm, l.mw = o.txDBm, dbmToMW(l.b.Received(o.txDBm))
			}
			return l.mw
		}
	}
	return dbmToMW(m.model.LinkBudget(o.from, m.slots[ts].id, o.pos, toPos).Received(o.txDBm))
}

// prrFor returns the packet reception rate for a frame of n bytes at
// the given SINR, memoised. PRR is a pure function of its arguments, so
// the memo is bit-identical to recomputation.
func (m *Medium) prrFor(sinr float64, n int) float64 {
	if m.prr == nil {
		m.prr = make([]prrSlot, prrMemoSize(len(m.slots)))
		m.prrShift = uint(64 - bits.TrailingZeros(uint(len(m.prr))))
	}
	sb := math.Float64bits(sinr)
	e := &m.prr[(sb^uint64(n))*0x9E3779B97F4A7C15>>m.prrShift]
	if e.n == n && e.sinrBits == sb {
		return e.p
	}
	p := phys.PRR(sinr, n)
	*e = prrSlot{sinrBits: sb, n: n, p: p}
	return p
}

// linkKeysFor returns the interned metric names of the directed link
// from → to.
func (m *Medium) linkKeysFor(from, to phys.NodeID) *linkKeys {
	key := uint32(from)<<16 | uint32(to)
	if lk, ok := m.links[key]; ok {
		return lk
	}
	base := "link." + strconv.FormatUint(uint64(from), 10) + "-" +
		strconv.FormatUint(uint64(to), 10)
	lk := &linkKeys{delivered: base + ".delivered", lost: base + ".lost", lqi: base + ".lqi"}
	m.links[key] = lk
	return lk
}

// noiseFloor returns the model's noise floor converted to milliwatts,
// and that value converted back to dBm, cached until the floor changes.
func (m *Medium) noiseFloor() (mw, dbm float64) {
	if m.noiseFor != m.model.NoiseFloor || m.noiseMW == 0 {
		m.noiseFor = m.model.NoiseFloor
		m.noiseMW = dbmToMW(m.noiseFor)
		m.noiseDBm = mwToDBm(m.noiseMW)
	}
	return m.noiseMW, m.noiseDBm
}

// Transmit puts frame on the air from node tx. The caller (the MAC) is
// responsible for radio state management: it must have set the radio to
// TX and must return it to RX after the returned airtime. Deliveries at
// every other in-range listener are scheduled at the end of the airtime.
func (m *Medium) Transmit(tx Receiver, frame []byte) (sim.Time, error) {
	if len(frame) == 0 {
		return 0, fmt.Errorf("medium: empty frame")
	}
	s, ok := m.slotOf[tx.NodeID()]
	if !ok || m.slots[s].rx == nil {
		return 0, fmt.Errorf("medium: node %d not attached", tx.NodeID())
	}
	m.prune()
	airtime := radio.FrameAirtime(len(frame))
	txDBm := radio.PowerDBm(tx.PowerLevel())
	var t *transmission
	if n := len(m.txPool); n > 0 {
		t = m.txPool[n-1]
		m.txPool[n-1] = nil
		m.txPool = m.txPool[:n-1]
	} else {
		t = &transmission{}
	}
	t.from = tx.NodeID()
	t.fromSlot = s
	t.pos = tx.Position()
	t.channel = tx.Channel()
	t.txDBm = txDBm
	t.start = m.eng.Now()
	t.end = m.eng.Now() + airtime
	t.frame = append(t.frame[:0], frame...)
	t.verified = m.frameCheck != nil && m.frameCheck(t.frame)
	// Capture the fan-out now: detaching a node mid-flight must not
	// change the other receivers' outcomes (deliver re-checks attachment
	// per candidate).
	r := m.reachFor(s, tx)
	t.cand, t.far = r.cand, r.far
	t.origin = m.keyFor(t.pos)
	m.register(t)
	m.active = append(m.active, t)
	m.stats.Transmitted++
	m.txSeq++
	seq := m.txSeq
	if m.tap != nil {
		m.tap(TapRecord{Seq: seq, From: t.from, Channel: t.channel, TxDBm: t.txDBm,
			Bytes: len(t.frame), Start: t.start, End: t.end})
	}
	if m.tel.Recording() {
		m.tel.EmitSpan(t.from, telemetry.LayerMedium, "tx", airtime,
			telemetry.Uint64("txseq", seq),
			telemetry.Int("ch", t.channel),
			telemetry.Float("dbm", t.txDBm),
			telemetry.Int("bytes", len(t.frame)))
	}
	t.seq = seq
	m.eng.AfterArg(airtime, m.deliverCb, t)
	return airtime, nil
}

// report publishes t's delivery outcome o at node to to the stats
// counters' observers: the delivery tap and the telemetry recorder. It
// builds nothing when neither observes. rxDBm is the received power
// (zero before the fault check); info, for a demodulated frame, carries
// its SINR, RSSI and LQI; cause refines OutcomeCorrupted.
func (m *Medium) report(t *transmission, to phys.NodeID, o DeliveryOutcome, cause string, rxDBm float64, info *RxInfo) {
	recording := m.tel.Recording()
	if m.deliveryTap == nil && !recording {
		return
	}
	d := TapDelivery{TxSeq: t.seq, From: t.from, To: to, Channel: t.channel,
		Outcome: o, Cause: cause, RxPowerDBm: rxDBm, At: m.eng.Now()}
	if info != nil {
		d.SINRDB, d.RSSI, d.LQI = info.SNRDB, info.RSSI, info.LQI
	}
	if m.deliveryTap != nil {
		m.deliveryTap(d)
	}
	if !recording {
		return
	}
	attrs := []telemetry.Attr{
		telemetry.Uint64("txseq", d.TxSeq),
		telemetry.Node("from", d.From),
		telemetry.String("outcome", d.Outcome.String()),
	}
	if d.Cause != "" {
		attrs = append(attrs, telemetry.String("cause", d.Cause))
	}
	if d.Outcome == OutcomeDelivered || d.Outcome == OutcomeCorrupted {
		attrs = append(attrs,
			telemetry.Float("rx_dbm", d.RxPowerDBm),
			telemetry.Float("sinr_db", d.SINRDB),
			telemetry.Int("lqi", d.LQI))
	}
	m.tel.Emit(d.To, telemetry.LayerMedium, "rx", attrs...)
	lk := m.linkKeysFor(d.From, d.To)
	switch d.Outcome {
	case OutcomeDelivered:
		m.tel.Metrics().Counter(lk.delivered).Inc()
		m.tel.Metrics().Gauge(lk.lqi).Set(float64(d.LQI))
	case OutcomeCorrupted, OutcomeInjectedDrop:
		// Only real link losses count: out-of-range, off-channel, and
		// radio-off outcomes would flatten the link's PRR — under LPL
		// duty-cycling a sleeping radio misses most frames by design,
		// and that is a schedule property, not link quality.
		m.tel.Metrics().Counter(lk.lost).Inc()
	}
}

// deliver fans t out to the candidate set captured at transmit time,
// at t.end. Each candidate is first assessed (link budget and
// interference — assessOne), then committed (fault hooks, randomness,
// stats, telemetry, OnFrame) in candidate order.
func (m *Medium) deliver(t *transmission) {
	// Nodes excluded by the reachability floor can never demodulate the
	// frame; they are counted in bulk, with no per-receiver outcome.
	m.stats.BelowSensitivity += t.far
	noiseMW, noiseDBm := m.noiseFloor()
	var a assess
	for _, s := range t.cand {
		m.assessOne(&a, t, s, noiseMW, noiseDBm)
		rx := a.rx
		if rx == nil {
			continue // detached while the frame was in flight
		}
		id := m.slots[s].id
		b := a.b
		if rx.Channel() != t.channel {
			m.stats.WrongChannel++
			m.report(t, id, OutcomeWrongChannel, "", 0, nil)
			continue
		}
		var eff FaultEffect
		if m.faultFn != nil {
			eff = m.faultFn(t.from, id, t.channel)
		}
		if eff.Drop {
			m.stats.InjectedDrops++
			m.report(t, id, OutcomeInjectedDrop, "", 0, nil)
			continue
		}
		rxDBm := b.Received(t.txDBm) - eff.ExtraLossDB
		if rxDBm < radio.SensitivityDBm {
			m.stats.BelowSensitivity++
			m.report(t, id, OutcomeBelowSensitivity, "", rxDBm, nil)
			continue
		}
		if rx.RadioState() != radio.RX {
			m.stats.MissedNotListening++
			m.report(t, id, OutcomeRadioOff, "", rxDBm, nil)
			continue
		}
		if !a.scanned {
			// The assessment skipped the scan because the fault-free
			// power is under the floor; only a negative ExtraLossDB
			// lifts it back over, so scan now.
			m.scan(&a, t, s, rx.Position(), noiseMW, noiseDBm)
		}
		sinr, interfered := rxDBm-a.inDBm, a.interfered
		// The analytical BER curve models interference as white noise,
		// which flatters DSSS under co-channel collisions. Real CC2420
		// receivers need the carrier a few dB above an 802.15.4
		// interferer to capture it, so frames that collided and fall
		// under the co-channel rejection threshold are lost outright.
		var ok2 bool
		cause := ""
		if interfered && sinr < CaptureThresholdDB {
			ok2 = false
			cause = "capture"
		} else {
			ok2 = m.rng.Bool(m.prrFor(sinr, len(t.frame)))
			if !ok2 {
				cause = "per"
			}
		}
		if ok2 && eff.Corrupt {
			ok2 = false // jammed channel
			cause = "jam"
		}
		if ok2 && m.lossFn != nil && m.lossFn(t.from, id, t.frame) {
			ok2 = false // injected loss
			cause = "injected"
		}
		info := RxInfo{
			From:       t.from,
			RxPowerDBm: rxDBm,
			RSSI:       radio.RSSIRegister(rxDBm),
			LQI:        radio.LQI(sinr),
			SNRDB:      sinr,
			Corrupted:  !ok2,
			Verified:   ok2 && t.verified,
			At:         m.eng.Now(),
		}
		if ok2 {
			m.stats.Delivered++
			m.report(t, id, OutcomeDelivered, "", rxDBm, &info)
		} else {
			m.stats.Corrupted++
			m.report(t, id, OutcomeCorrupted, cause, rxDBm, &info)
		}
		rx.OnFrame(t.frame, info)
	}
}

// CaptureThresholdDB is the co-channel rejection of the receiver: when a
// frame overlaps another transmission, it is received only if it is at
// least this many dB above the combined interference.
const CaptureThresholdDB = 4.0

// EnergyDBmAt reports the strongest in-band signal currently on the air
// as heard by node r, or negative infinity when the channel is silent.
// This is what the MAC's CCA samples. Signals under the reachability
// floor (SensitivityDBm − FadeMarginDB even at full transmit power) are
// treated as silence: the radio cannot detect them. The scan covers the
// ledger of r's cell — everything outside it is under the floor by the
// ring bound — or every active transmission when r is not attached.
func (m *Medium) EnergyDBmAt(r Receiver) float64 {
	m.prune()
	now := m.eng.Now()
	best := math.Inf(-1)
	rid, rpos, ch := r.NodeID(), r.Position(), r.Channel()
	rs, known := m.slotOf[rid]
	attached := known && m.slots[rs].rx != nil
	ledger := m.active
	if attached {
		ledger = m.grid.res[rs].c.ledger
	}
	for _, t := range ledger {
		if t.pruned || t.channel != ch || t.from == rid {
			continue
		}
		if t.start > now || t.end <= now {
			continue
		}
		var b phys.Budget
		if attached {
			b = m.txBudget(t.fromSlot, t.pos, rs, rpos)
		} else {
			b = m.model.LinkBudget(t.from, rid, t.pos, rpos)
		}
		if b.Received(maxTxDBm) < radio.SensitivityDBm-FadeMarginDB {
			continue // undetectable at any power level
		}
		if p := b.Received(t.txDBm); p > best {
			best = p
		}
	}
	return best
}

// ChannelBusy reports whether node r's CCA would read "busy" at the
// given threshold.
func (m *Medium) ChannelBusy(r Receiver, thresholdDBm float64) bool {
	return m.EnergyDBmAt(r) >= thresholdDBm
}

func dbmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }
func mwToDBm(mw float64) float64  { return 10 * math.Log10(mw) }
