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
	// Position returns the node's physical location. The medium records
	// it at Attach and re-reads it on NodeMoved and InvalidateTopology.
	Position() phys.Position
	// Radio returns the node's transceiver. The medium reads its tuned
	// channel, state and power level directly, once per delivery.
	Radio() *radio.Radio
	// OnFrame is invoked when a frame's airtime completes while this
	// node is listening on the frame's channel. The frame slice is a
	// read-only view shared by every receiver of the broadcast (and by
	// the medium itself), valid only for the duration of the call: an
	// implementation that mutates the bytes must do so on its own copy,
	// and one that retains them past its return must copy them.
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

// deliveryOutcome classifies what happened to one (frame, receiver)
// pair when the frame's airtime completed. Its value is the rx event's
// outcome attribute.
type deliveryOutcome string

// Per-receiver delivery outcomes, from best to worst.
const (
	// outcomeDelivered: the frame arrived intact.
	outcomeDelivered deliveryOutcome = "delivered"
	// outcomeCorrupted: the frame arrived with bit errors (the MAC's
	// CRC check will fail). The rx event's cause says why: "capture"
	// (lost a co-channel collision), "per" (SINR packet-error draw) or
	// "jam" (a fault hook's Corrupt effect: a jammed channel).
	outcomeCorrupted deliveryOutcome = "corrupted"
	// outcomeWrongChannel: the receiver was tuned to another channel.
	outcomeWrongChannel deliveryOutcome = "wrong-channel"
	// outcomeRadioOff: the receiver was not in RX (off or transmitting)
	// when the frame ended.
	outcomeRadioOff deliveryOutcome = "radio-off"
	// outcomeBelowSensitivity: the signal arrived under the radio's
	// sensitivity floor and was never detected.
	outcomeBelowSensitivity deliveryOutcome = "below-sensitivity"
	// outcomeInjectedDrop: an active fault (blackout, partition)
	// swallowed the frame.
	outcomeInjectedDrop deliveryOutcome = "injected-drop"
)

// FaultEffect is what an injected fault does to one delivery. Effects
// compose: a degraded link loses ExtraLossDB of signal before the
// sensitivity check, a jammed channel corrupts whatever still decodes,
// and a blackout or partition drops the frame outright.
type FaultEffect struct {
	// ExtraLossDB is additional path loss applied to this delivery
	// (internal/fault rejects negative values; a negative one still lifts
	// a receiver inside the fade margin over the sensitivity floor).
	ExtraLossDB float64
	// Drop suppresses the delivery entirely (the receiver hears nothing).
	Drop bool
	// Corrupt forces bit errors even if the SINR draw succeeded.
	Corrupt bool
}

type transmission struct {
	from phys.NodeID
	// fromSlot is the transmitter's attach slot (its row of the power
	// memo).
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
	// reach is the transmitter's candidate set captured at transmit
	// time, built for txDBm (shared with the reachability cache;
	// read-only).
	reach *reachability
	// far counts the nodes deliver tallies under the floor in bulk: the
	// attached nodes, other than the transmitter, outside reach's
	// candidate set. Transmit sets it, and Attach and Detach keep it
	// current while the frame is in flight (countFar).
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

// floorDBm is the reachability floor the candidate sets keep: a link
// under it even at maximum transmit power is never detected.
const floorDBm = radio.SensitivityDBm - FadeMarginDB

// maxTxDBm is the strongest power any attached radio can transmit at;
// it bounds the received power of every link through the static gain.
var maxTxDBm = radio.PowerDBm(radio.MaxPowerLevel)

// detectRange is the distance beyond which no link clears the floor
// (phys.Model.DetectRange at maximum power), read from the model as it
// stands now.
func (m *Medium) detectRange() float64 { return m.model.DetectRange(maxTxDBm, floorDBm) }

// reachBound returns the squared distance beyond which a pair is
// provably under the floor, for overFloor: the detectability range,
// widened by 1e-9 so that rounding in the distance never rules out a
// pair over the floor.
func (m *Medium) reachBound() float64 {
	r := m.detectRange() * (1 + 1e-9)
	return r * r
}

// overFloor returns the budget of the directed link from → to and
// whether its gain at maximum transmit power clears the reachability
// floor. A pair farther apart than bound (reachBound) is under it by
// the range bound and is ruled out without a budget. It is the one
// floor test of the candidate sets, of countFar and of EnergyDBmAt's
// model path, and it counts the budgets it computes (budgets).
func (m *Medium) overFloor(from, to phys.NodeID, fromPos, toPos phys.Position, bound float64) (phys.Budget, bool) {
	dx, dy := fromPos.X-toPos.X, fromPos.Y-toPos.Y
	if dx*dx+dy*dy > bound {
		return phys.Budget{}, false
	}
	m.budgets++
	b := m.model.LinkBudget(from, to, fromPos, toPos)
	return b, b.Received(maxTxDBm) >= floorDBm
}

// reachability is one transmitter's precomputed fan-out at one transmit
// power: the slots of the attached nodes (in stable attach order) whose
// link gain at maximum transmit power clears the sensitivity floor minus
// the fade margin, and each one's received power at txDBm.
type reachability struct {
	cand []int32
	// rx[i] is cand[i]'s received power in dBm when the transmitter
	// emits txDBm, computed from the positions recorded at build time.
	rx    []float64
	txDBm float64
	// stale marks a set the medium has dropped (dropReach): an endpoint
	// may have moved or detached, or the model changed, since rx was
	// computed, so in-flight frames holding the set recompute received
	// powers instead of reading rx.
	stale bool
}

// slot is one attach slot: the node bound to it, its radio, and where
// the medium last placed it (Attach, NodeMoved, InvalidateTopology). A
// slot belongs to one node ID for the medium's lifetime; Detach vacates
// it (rx = nil) and re-attaching the same ID fills it again, so a slot
// captured by an in-flight transmission never names a different node.
type slot struct {
	rx  Receiver
	rad *radio.Radio
	id  phys.NodeID
	pos phys.Position
}

// memoRow is one transmitter's row of a cell's power memo: mw[k] is
// the power in milliwatts the member in local slot k receives while the
// transmitter emits txDBm, NaN while unset. The memo holds only the
// value the SINR scan reads per pair; a transmission at another power
// resets the row.
type memoRow struct {
	txDBm float64
	mw    []float64
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
	// flight; pruned lazily, at most once per instant (prunedAt).
	active   []*transmission
	prunedAt sim.Time
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
	// faultFn, when set, is consulted per delivery by the fault
	// injector (internal/fault) or a test.
	faultFn func(from, to phys.NodeID, channel int) FaultEffect
	// txSeq numbers transmissions so delivery outcomes can be joined
	// back to the frame they belong to.
	txSeq uint64
	// tel, when set, receives medium-layer telemetry: a tx span per
	// transmission and an rx event per delivery outcome. It is the
	// medium's only observer.
	tel *telemetry.Recorder
	// reach caches each transmitter's candidate set, indexed by slot;
	// invalidated within the ring on attach, detach and moves, and
	// everywhere on topology changes.
	reach []*reachability
	// near is reachFor's scratch buffer; each set keeps exact-size
	// copies.
	near []reached
	// budgets counts the link budgets overFloor computed, for the
	// tests that pin how many a candidate-set build costs.
	budgets uint64
	// grid is the partition into cells (cells.go): membership,
	// interference ledgers and power memos. Unsharded, it is one
	// unbounded cell.
	grid grid
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
	// viewGen numbers the current generation of the cells' interferer
	// views (resetView).
	viewGen uint64
}

// SetFaultHook installs the fault injector's per-delivery hook: fn is
// asked what effect, if any, active faults have on a frame from one
// node to another on a channel. Pass nil to remove.
func (m *Medium) SetFaultHook(fn func(from, to phys.NodeID, channel int) FaultEffect) {
	m.faultFn = fn
}

// FaultHooked reports whether a fault hook is installed. A hook that
// finds no fault changes no output, so TestHooksLiveOnlyWhileActive
// reads this to pin that the fault injector installs it only while a
// fault is in force.
func (m *Medium) FaultHooked() bool { return m.faultFn != nil }

// SetFrameCheck installs the frame integrity check Transmit runs once
// per transmission (nil removes it). The medium cannot import the MAC,
// so the MAC installs its FCS check here; every MAC on a medium installs
// the same one.
func (m *Medium) SetFrameCheck(fn func(frame []byte) bool) { m.frameCheck = fn }

// SetTelemetry points the medium at a telemetry recorder (nil detaches).
func (m *Medium) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// New returns a medium running on eng with the given propagation model.
func New(eng *sim.Engine, model *phys.Model) *Medium {
	m := &Medium{
		eng:    eng,
		model:  model,
		rng:    eng.Rand().Fork("medium"),
		slotOf: make(map[phys.NodeID]int32),
		// No prune has run yet; the clock starts at 0.
		prunedAt: -1,
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

// InvalidateTopology drops the power memos and candidate sets, re-reads
// every attached node's position and rebuilds the cell partition at the
// current cell size. Call it after mutating the propagation model or
// moving nodes behind the medium's back; channel and power changes need
// no invalidation (a memo row and a candidate set each record the power
// they were built for), and a single node moving only needs NodeMoved.
// No tool mutates the model after build: FuzzMediumPurity drives this
// against the full-scan oracle.
func (m *Medium) InvalidateTopology() {
	for _, s := range m.order {
		m.slots[s].pos = m.slots[s].rx.Position()
	}
	m.partition(m.grid.cellSize)
}

// NodeMoved tells the medium that one attached node changed position:
// memoised powers involving it are dropped, it migrates between
// cells if it crossed an edge, and the candidate sets of the
// transmitters within the old and new rings are invalidated. Motes are
// fixed once deployed — this is the workstation walking with the
// operator (MAC.SetPosition calls it). Frames already in flight keep
// the fan-out captured at transmit time, now stale, so their received
// powers are recomputed against the new position at delivery.
func (m *Medium) NodeMoved(id phys.NodeID) {
	s, ok := m.slotOf[id]
	if !ok || m.slots[s].rx == nil {
		return // not attached: nothing cached
	}
	m.resetView()
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
	m.resetView()
	m.slots[s].rx, m.slots[s].rad, m.slots[s].pos = r, r.Radio(), r.Position()
	m.countFar(s, true)
	m.order = append(m.order, s)
	key := m.keyFor(m.slots[s].pos)
	m.place(s, key)
	// Nearby transmitters must see the newcomer in their candidate sets;
	// distant ones provably cannot reach it.
	m.invalidateRing(key)
	return nil
}

// Detach removes a node; pending deliveries to it are silently dropped,
// and frames in flight that counted it under the floor stop counting it.
// A frame the node already put on the air stays there: it delivers to
// (and interferes at) the remaining nodes, exactly as a frame from a
// mote that lost power mid-transmission would. Its memo entries go
// with it, so a node that comes back elsewhere inherits none. No tool
// detaches a node: FuzzMediumPurity drives this against the full-scan
// oracle.
func (m *Medium) Detach(id phys.NodeID) {
	s, ok := m.slotOf[id]
	if !ok || m.slots[s].rx == nil {
		return
	}
	m.resetView()
	m.countFar(s, false)
	m.slots[s].rx, m.slots[s].rad = nil, nil
	m.order = slices.DeleteFunc(m.order, func(n int32) bool { return n == s })
	// In-flight transmissions keep their captured candidate sets (which
	// may still name s — deliver drops it as vacant); only future
	// transmissions need rebuilt sets. s leaves its cell before the ring
	// is invalidated, so its own set is dropped here.
	key := m.grid.res[s].c.key
	m.grid.remove(s)
	m.dropReach(s)
	m.invalidateRing(key)
}

// countFar moves slot s into (attach) or out of (detach) the bulk
// under-floor count of every frame in flight that counts it: one s
// neither sent nor is a candidate of, and whose link to s's recorded
// position lies under the floor — the full-scan oracle's test, which
// counts such a node exactly when it is attached at delivery. A frame
// delivered earlier at this instant is adjusted too; its count is no
// longer read. Only Attach and Detach pay for this, never a delivery.
func (m *Medium) countFar(s int32, attach bool) {
	now := m.eng.Now()
	sl := &m.slots[s]
	bound := m.reachBound()
	for _, t := range m.active {
		if t.end < now || s == t.fromSlot || slices.Contains(t.reach.cand, s) {
			continue
		}
		if _, ok := m.overFloor(t.from, sl.id, t.pos, sl.pos, bound); ok {
			continue // over the floor: a node attached mid-flight the frame never reaches
		}
		if attach {
			t.far++
		} else {
			t.far--
		}
	}
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
	// A second call at the same instant prunes nothing new: whatever was
	// transmitted since ends after now and can only lower minStart. An
	// LPL copy meets this twice, at its CCA and at its Transmit.
	if now == m.prunedAt {
		return
	}
	m.prunedAt = now
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
		for _, c := range m.grid.all {
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

// prrFor returns the packet reception rate for a frame of n bytes at
// the given SINR: exactly 1 from phys.CertainSNRDB up, memoised below
// it. PRR is a pure function of its arguments, so the memo is
// bit-identical to recomputation.
func (m *Medium) prrFor(sinr float64, n int) float64 {
	if sinr >= phys.CertainSNRDB {
		return 1 // phys.PRR is exactly 1 there
	}
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
	sl := &m.slots[s]
	var t *transmission
	if n := len(m.txPool); n > 0 {
		t = m.txPool[n-1]
		m.txPool[n-1] = nil
		m.txPool = m.txPool[:n-1]
	} else {
		t = &transmission{}
	}
	t.from = sl.id
	t.fromSlot = s
	t.pos = sl.pos
	t.channel = sl.rad.Channel()
	t.txDBm = radio.PowerDBm(sl.rad.PowerLevel())
	t.start = m.eng.Now()
	t.end = m.eng.Now() + airtime
	t.frame = append(t.frame[:0], frame...)
	t.verified = m.frameCheck != nil && m.frameCheck(t.frame)
	// Capture the fan-out now: detaching a node mid-flight must not
	// change the other receivers' outcomes (deliver re-checks attachment
	// per candidate).
	t.reach = m.reachFor(s, t.txDBm)
	// A current set lists every attached node over the floor: the rest,
	// in or out of the ring, are under it.
	t.far = uint64(len(m.order) - 1 - len(t.reach.cand))
	t.origin = m.keyFor(t.pos)
	m.register(t)
	m.active = append(m.active, t)
	m.stats.Transmitted++
	m.txSeq++
	seq := m.txSeq
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

// report publishes t's delivery outcome o at node to as a telemetry rx
// event and the link's counters; it does nothing unless the recorder is
// recording. info, for a demodulated frame, carries its received power,
// SINR and LQI; cause refines outcomeCorrupted.
func (m *Medium) report(t *transmission, to phys.NodeID, o deliveryOutcome, cause string, info *RxInfo) {
	if !m.tel.Recording() {
		return
	}
	attrs := []telemetry.Attr{
		telemetry.Uint64("txseq", t.seq),
		telemetry.Node("from", t.from),
		telemetry.String("outcome", string(o)),
	}
	if cause != "" {
		attrs = append(attrs, telemetry.String("cause", cause))
	}
	if info != nil {
		attrs = append(attrs,
			telemetry.Float("rx_dbm", info.RxPowerDBm),
			telemetry.Float("sinr_db", info.SNRDB),
			telemetry.Int("lqi", info.LQI))
	}
	m.tel.Emit(to, telemetry.LayerMedium, "rx", attrs...)
}

// deliver fans t out to the candidate set captured at transmit time,
// at t.end, in one pass: each candidate's checks run in a fixed order —
// channel, fault effect, sensitivity, radio state, SINR, corruption
// draws — and stop at the first that decides its outcome, so the
// interference scan is computed only for receivers that need it. The
// received power is the set's, unless the set went stale in flight.
func (m *Medium) deliver(t *transmission) {
	r := t.reach
	m.resetView()
	// Nodes excluded by the reachability floor can never demodulate the
	// frame; they are counted in bulk, with no per-receiver outcome.
	m.stats.BelowSensitivity += t.far
	noiseMW, noiseDBm := m.noiseFloor()
	for i, s := range r.cand {
		sl := &m.slots[s]
		if sl.rx == nil {
			continue // detached while the frame was in flight
		}
		id := sl.id
		if sl.rad.Channel() != t.channel {
			m.stats.WrongChannel++
			m.report(t, id, outcomeWrongChannel, "", nil)
			continue
		}
		var eff FaultEffect
		if m.faultFn != nil {
			eff = m.faultFn(t.from, id, t.channel)
		}
		if eff.Drop {
			m.stats.InjectedDrops++
			m.report(t, id, outcomeInjectedDrop, "", nil)
			continue
		}
		rxDBm := r.rx[i]
		if r.stale {
			rxDBm = m.model.LinkBudget(t.from, id, t.pos, sl.pos).Received(t.txDBm)
		}
		rxDBm -= eff.ExtraLossDB
		if rxDBm < radio.SensitivityDBm {
			m.stats.BelowSensitivity++
			m.report(t, id, outcomeBelowSensitivity, "", nil)
			continue
		}
		if sl.rad.State() != radio.RX {
			m.stats.MissedNotListening++
			m.report(t, id, outcomeRadioOff, "", nil)
			continue
		}
		inDBm, interfered := m.scan(t, s, noiseMW, noiseDBm)
		sinr := rxDBm - inDBm
		// The analytical BER curve models interference as white noise,
		// which flatters DSSS under co-channel collisions. Real CC2420
		// receivers need the carrier a few dB above an 802.15.4
		// interferer to capture it, so frames that collided and fall
		// under the co-channel rejection threshold are lost outright.
		ok, cause := true, ""
		switch {
		case interfered && sinr < CaptureThresholdDB:
			ok, cause = false, "capture"
		case !m.rng.Bool(m.prrFor(sinr, len(t.frame))):
			ok, cause = false, "per"
		case eff.Corrupt:
			ok, cause = false, "jam" // jammed channel
		}
		info := RxInfo{
			From:       t.from,
			RxPowerDBm: rxDBm,
			RSSI:       radio.RSSIRegister(rxDBm),
			LQI:        radio.LQI(sinr),
			SNRDB:      sinr,
			Corrupted:  !ok,
			Verified:   ok && t.verified,
			At:         m.eng.Now(),
		}
		if ok {
			m.stats.Delivered++
			m.report(t, id, outcomeDelivered, "", &info)
		} else {
			m.stats.Corrupted++
			m.report(t, id, outcomeCorrupted, cause, &info)
		}
		sl.rx.OnFrame(t.frame, info)
	}
}

// interferer is one entry of a frame's interferer view from one cell: a
// ledger entry overlapping the frame on its channel, and its
// transmitter's memo row in that cell, or nil when the row may not be
// used — the transmitter moved or detached since the entry was captured,
// or the cell is outside its ring.
type interferer struct {
	o   *transmission
	row *memoRow
}

// resetView invalidates every cell's interferer view. deliver resets
// per frame, and so does every call that can purge a memo row,
// reallocate a cell's rows or move a slot between cells, so a view never
// holds a stale row pointer.
func (m *Medium) resetView() { m.viewGen++ }

// viewFor returns t's interferer view from cell c, gathering it on the
// first scan in c since the last reset: c's ledger entries other than t
// that overlap t in time on its channel, in ledger order, each with its
// transmitter's memo row when that transmitter is still attached at the
// position it transmitted from.
func (m *Medium) viewFor(t *transmission, c *cell) []interferer {
	if c.viewGen == m.viewGen {
		return c.view
	}
	view := c.view[:0]
	for _, o := range c.ledger {
		if o == t || o.pruned || o.channel != t.channel || o.start >= t.end || o.end <= t.start {
			continue
		}
		var row *memoRow
		if sl := &m.slots[o.fromSlot]; sl.rx != nil && sl.pos == o.pos {
			row = m.memoRowFor(o.fromSlot, c, o.txDBm)
		}
		view = append(view, interferer{o: o, row: row})
	}
	c.view, c.viewGen = view, m.viewGen
	return view
}

// scan returns the interference-plus-noise level in dBm at slot s over
// t's interferer view from its cell, and whether any interferer other
// than s itself overlapped t. A memo entry serves a repeated pair
// without a budget or a math.Pow and holds exactly the value
// recomputation gives; a row retagged for another frame of the same
// transmitter at another power is bypassed.
func (m *Medium) scan(t *transmission, s int32, noiseMW, noiseDBm float64) (inDBm float64, interfered bool) {
	to := m.grid.res[s]
	interfMW := 0.0
	for _, e := range m.viewFor(t, to.c) {
		o := e.o
		if o.fromSlot == s {
			continue
		}
		interfered = true
		if e.row == nil || e.row.txDBm != o.txDBm {
			interfMW += m.receivedMW(o, s)
			continue
		}
		p := &e.row.mw[to.loc]
		if math.IsNaN(*p) {
			*p = m.receivedMW(o, s)
		}
		interfMW += *p
	}
	if interfMW == 0 {
		return noiseDBm, interfered // noiseMW + 0 is exactly noiseMW
	}
	return mwToDBm(noiseMW + interfMW), interfered
}

// receivedMW computes the power of transmission o at slot s, where the
// medium last placed it, in milliwatts.
func (m *Medium) receivedMW(o *transmission, s int32) float64 {
	sl := &m.slots[s]
	return dbmToMW(m.model.LinkBudget(o.from, sl.id, o.pos, sl.pos).Received(o.txDBm))
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
//
// An attached listener reads each transmission's captured candidate
// set: a fresh set lists exactly the nodes over the floor, with their
// received powers, so a member reads its rx entry and a non-member hears
// silence. Stale sets and unattached listeners compute from the model.
func (m *Medium) EnergyDBmAt(r Receiver) float64 {
	m.prune()
	now := m.eng.Now()
	best := math.Inf(-1)
	rid := r.NodeID()
	rs, known := m.slotOf[rid]
	attached := known && m.slots[rs].rx != nil
	var ledger []*transmission
	var rpos phys.Position
	var ch int
	if attached {
		sl := &m.slots[rs]
		ledger, rpos, ch = m.grid.res[rs].c.ledger, sl.pos, sl.rad.Channel()
	} else {
		ledger, rpos, ch = m.active, r.Position(), r.Radio().Channel()
	}
	for _, t := range ledger {
		if t.pruned || t.channel != ch || t.from == rid {
			continue
		}
		if t.start > now || t.end <= now {
			continue
		}
		var p float64
		if attached && !t.reach.stale {
			i, ok := m.candidate(t.reach, rs)
			if !ok {
				continue // under the floor
			}
			p = t.reach.rx[i]
		} else {
			b, ok := m.overFloor(t.from, rid, t.pos, rpos, m.reachBound())
			if !ok {
				continue // undetectable at any power level
			}
			p = b.Received(t.txDBm)
		}
		if p > best {
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
