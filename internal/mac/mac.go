// Package mac implements the 802.15.4-style medium access control layer
// of the simulated motes: unslotted CSMA/CA with energy-detect CCA,
// binary exponential backoff, a small bounded transmit queue (whose
// occupancy is what LiteView's ping output reports as "Queue = n/m"),
// and CRC-checked frames.
//
// The MAC broadcasts every frame, as the paper's stack does ("the packet
// is then delivered to the MAC component and broadcasted over the
// radio"); destination filtering is the port-based stack's job.
package mac

import (
	"errors"
	"fmt"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// UnitBackoff is the 802.15.4 unit backoff period (20 symbols).
const UnitBackoff = 20 * radio.SymbolTime

// 802.15.4 CSMA/CA and CC2420 auto-ack parameters, fixed as the mote's
// firmware fixes them.
const (
	// MinBE and MaxBE bound the backoff exponent.
	MinBE, MaxBE = 3, 5
	// MaxCSMABackoffs is how many busy-channel rounds are tolerated
	// before the frame is dropped with ErrChannelAccess.
	MaxCSMABackoffs = 4
	// QueueCap bounds the transmit queue, as a 4 KB-RAM mote must.
	QueueCap = 8
	// MaxFrameRetries bounds data retransmissions after missing acks.
	MaxFrameRetries = 3
	// AckWait is how long the sender waits for the auto-ack after its
	// frame's airtime ends: turnaround + ack airtime (radio.FrameAirtime
	// of the ack MPDU) + scheduling slack.
	AckWait = radio.TurnaroundTime + (radio.PHYOverheadBytes+ackFrameLen)*radio.ByteTime + 200*1000
)

// Config selects the MAC's operating mode.
type Config struct {
	// LinkAcks enables 802.15.4 auto-acknowledgement of unicast frames
	// with MaxFrameRetries retransmissions — the CC2420's hardware
	// auto-ack. Broadcast frames are never acked.
	LinkAcks bool
	// LPL enables low-power listening (duty cycling); see lpl.go.
	LPL bool
	// Listening keeps an LPL MAC's radio on: it still repeats its frames
	// across a sleep interval to reach sleeping peers, but never sleeps
	// itself. That is TinyOS's local wakeup interval 0 with the
	// deployment's remote wakeup interval, the setting of a mains- or
	// USB-powered base mote; core.NewWorkstationMAC sets it.
	Listening bool
}

// DefaultConfig returns the always-on MAC with hardware
// auto-acknowledgement enabled.
func DefaultConfig() Config {
	return Config{LinkAcks: true}
}

// ackFrameLen is the MPDU length of an auto-ack (header + FCS, no
// payload).
const ackFrameLen = 8

// Errors reported by the MAC.
var (
	ErrQueueFull     = errors.New("mac: transmit queue full")
	ErrChannelAccess = errors.New("mac: channel access failure")
	ErrRadioOff      = errors.New("mac: radio is off")
	ErrNoAck         = errors.New("mac: no acknowledgement after retries")
)

// DeliverFunc receives intact decoded frames from the air. f.Payload
// is a borrow of a pooled transmission buffer, valid only for the
// duration of the call: a handler that retains payload bytes past its
// return must copy them (the buffer is reused by later transmissions).
type DeliverFunc func(f Frame, info medium.RxInfo)

// SentFunc is called when a queued frame leaves the MAC: err is nil
// after successful transmission, ErrChannelAccess when CSMA gave up.
// f.Payload is a borrow of the MAC's queue-slot buffer, valid only for
// the duration of the call; a callback that retains the payload must
// copy it first.
type SentFunc func(f Frame, err error)

// TxObserverFunc receives per-destination unicast transmit outcomes:
// err is nil after an acknowledged delivery, ErrNoAck after the retry
// budget is exhausted, ErrChannelAccess when CSMA gave up. It is the
// raw input of data-driven link estimation — every unicast data or
// control frame reports its fate, so link quality can react within a
// few lost frames instead of waiting for beacon-period expiry.
type TxObserverFunc func(dst phys.NodeID, err error)

// Stats counts MAC-level outcomes.
type Stats struct {
	Sent           uint64
	SentData       uint64
	SentBeacon     uint64
	SentControl    uint64 // management traffic (what Figure 7 counts)
	SentMACAcks    uint64 // auto-acks (MAC-level, not command overhead)
	ChannelAccess  uint64 // frames dropped after MaxCSMABackoffs
	QueueDrops     uint64
	Received       uint64
	CRCFailures    uint64
	BackoffRetries uint64
	FrameRetries   uint64 // data retransmissions after missing acks
	NoAck          uint64 // frames abandoned after MaxFrameRetries
	AckedOK        uint64 // unicast frames confirmed by auto-ack
}

type outgoing struct {
	frame   Frame
	sent    SentFunc
	queued  sim.Time
	retries int
	firstTx sim.Time
	// raw is the slot's encode buffer: the frame is serialised once at
	// enqueue time and the wire image reused across CSMA retries and
	// retransmissions. frame.Payload aliases raw[headerLen:...], so the
	// bytes stay valid exactly as long as the slot is occupied.
	raw []byte
}

// ackJob carries one pending auto-ack through its turnaround and
// completion events; jobs are pooled on the MAC so a receive burst does
// not allocate per ack.
type ackJob struct {
	seq byte
	dst phys.NodeID
	ep  uint64
}

// ackPoolCap bounds the per-MAC ackJob pool; in practice at most a
// couple of acks are in flight (turnaround + airtime ≪ frame spacing).
const ackPoolCap = 8

// dupTableSize bounds the duplicate table like a mote's RAM does.
const dupTableSize = 32

// MAC is the per-node link layer. It implements medium.Receiver.
type MAC struct {
	eng     *sim.Engine
	med     *medium.Medium
	rad     *radio.Radio
	rng     *sim.Rand
	id      phys.NodeID
	pos     phys.Position
	cfg     Config
	deliver DeliverFunc
	// The transmit queue is a fixed ring of QueueCap slots: q[qHead] is
	// the in-service frame, qLen the occupancy. Slots keep their encode
	// buffers across reuse, so steady-state Send does not allocate.
	q       []outgoing
	qHead   int
	qLen    int
	sending bool
	seq     byte
	// awaitSeq/awaitDst/ackArmed track the pending auto-ack wait. The
	// timeout itself is a pooled (handle-free) event; because AckWait is
	// a constant, timeouts fire in arm order, so a disarm simply counts one
	// stale firing to swallow (ackStale) instead of cancelling a handle.
	awaitSeq byte
	awaitDst phys.NodeID
	ackArmed bool
	ackStale int
	// CSMA state for the in-service frame. attempt/transmit completions
	// are pre-bound method values (one chain in flight at a time), so the
	// per-round state lives here instead of in per-event closures.
	be           int
	csmaRetries  int
	attemptEpoch uint64
	attemptCb    func()
	deferCb      func()
	txDoneCb     func()
	ackTimeoutCb func()
	// Auto-ack transmission path: pooled jobs, pre-bound callbacks, and
	// a reused encode buffer (the medium copies the bytes synchronously).
	ackPool    []*ackJob
	ackStartCb func(any)
	ackDoneCb  func(any)
	ackBuf     []byte
	// Pre-bound LPL duty-cycle callbacks (see lpl.go).
	lplSleepCb func()
	lplWakeCb  func()
	// LPL duty-cycle state. down is set by Reset and cleared by Boot: a
	// power-failed node's off radio stays off until it reboots.
	lplSleeping bool
	down        bool
	lingerUntil sim.Time
	lplJumpCb   func(any)
	lplJumps    []*lplJump
	// dup suppresses redelivery of retransmitted frames (802.15.4
	// receivers track the last sequence number per source).
	dup sim.Recent[phys.NodeID, byte]
	// dupSrc/dupSeq is dup's last written or confirmed row, valid while
	// dupKept. The row stays in dup with that value until rememberSeq
	// writes another, which replaces the kept one, or Reset clears both;
	// so a frame matching it is a duplicate, found without a scan.
	dupSrc  phys.NodeID
	dupSeq  byte
	dupKept bool
	// epoch invalidates in-flight transmit and ack completions across
	// Reset: a callback scheduled before a crash must not touch the
	// radio of the rebooted (or still-dead) node.
	epoch uint64
	// rxFault, when set, injects bit errors into received frames (burst
	// corruption from internal/fault).
	rxFault func(from phys.NodeID) bool
	// tel, when set, receives MAC-layer telemetry events.
	tel *telemetry.Recorder
	// txObserver, when set, is told the outcome of every completed
	// unicast data/control frame (link estimation feedback).
	txObserver TxObserverFunc
	stats      Stats
}

// New creates a MAC for node id at pos and attaches it to med. The
// deliver callback receives every intact frame heard on the node's
// channel (destination filtering is left to the layer above).
func New(eng *sim.Engine, med *medium.Medium, rad *radio.Radio, id phys.NodeID, pos phys.Position, cfg Config, deliver DeliverFunc) (*MAC, error) {
	if deliver == nil {
		return nil, errors.New("mac: nil deliver callback")
	}
	m := &MAC{
		eng:     eng,
		med:     med,
		rad:     rad,
		rng:     eng.Rand().Fork(fmt.Sprintf("mac-%d", id)),
		id:      id,
		pos:     pos,
		cfg:     cfg,
		deliver: deliver,
		q:       make([]outgoing, QueueCap),
		dup:     sim.NewRecent[phys.NodeID, byte](dupTableSize),
	}
	// Bind the hot-path callbacks once; scheduling a method value at the
	// call site would allocate a fresh closure per event.
	m.attemptCb = m.attemptFire
	m.deferCb = m.deferAttempt
	m.txDoneCb = m.txDone
	m.ackTimeoutCb = m.onAckTimeout
	m.ackStartCb = m.ackStart
	m.ackDoneCb = m.ackDone
	m.lplSleepCb = m.lplMaybeSleep
	m.lplWakeCb = m.lplWake
	m.lplJumpCb = m.lplJumped
	if err := med.Attach(m); err != nil {
		return nil, err
	}
	med.SetFrameCheck(intact)
	m.lplInit()
	return m, nil
}

// medium.Receiver implementation.

// NodeID returns the node's short address.
func (m *MAC) NodeID() phys.NodeID { return m.id }

// Position returns the node's location.
func (m *MAC) Position() phys.Position { return m.pos }

// SetPosition moves the node. Motes are fixed once deployed, but the
// management workstation's base station travels with the operator — so
// the medium's link-budget and reachability caches for this node are
// invalidated.
func (m *MAC) SetPosition(p phys.Position) {
	m.pos = p
	m.med.NodeMoved(m.id)
}

// Radio exposes the node's radio: the medium reads its channel, state
// and power level, and management commands reconfigure it.
func (m *MAC) Radio() *radio.Radio { return m.rad }

// QueueLen returns the current transmit queue occupancy (the "Queue"
// figure in ping output).
func (m *MAC) QueueLen() int { return m.qLen }

// Stats returns a snapshot of the MAC counters.
func (m *MAC) Stats() Stats { return m.stats }

// ResetStats zeroes the counters (the medium has had this from the
// start; the shell's `stats reset` needs it here too).
func (m *MAC) ResetStats() { m.stats = Stats{} }

// SetTelemetry points the MAC at a telemetry recorder (nil detaches).
func (m *MAC) SetTelemetry(rec *telemetry.Recorder) { m.tel = rec }

// SetTxObserver installs the per-destination transmit-outcome callback
// (nil removes it). Beacons, broadcasts, and MAC acks are not reported:
// only unicast frames carry ack-based delivery evidence. ErrRadioOff is
// also withheld — a dark local radio says nothing about the link.
func (m *MAC) SetTxObserver(fn TxObserverFunc) { m.txObserver = fn }

// SetRxFault installs a receive-path fault hook: frames for which fn
// returns true fail the CRC check, exactly as if the air had corrupted
// them. Pass nil to remove.
func (m *MAC) SetRxFault(fn func(from phys.NodeID) bool) { m.rxFault = fn }

// RxFaultHooked reports whether a receive-path fault hook is installed.
// A hook that finds no fault changes no output, so
// TestHooksLiveOnlyWhileActive reads this to pin that the fault
// injector installs it only while a fault is in force.
func (m *MAC) RxFaultHooked() bool { return m.rxFault != nil }

// Reset force-clears all link-layer state — transmit queue, pending
// ack wait, duplicate table, LPL phase — without running completion
// callbacks, the way a power failure would. In-flight transmit
// completions scheduled before the reset are invalidated and will not
// touch the radio.
func (m *MAC) Reset() {
	m.epoch++
	for i := range m.q {
		slot := &m.q[i]
		slot.frame = Frame{}
		slot.sent = nil
		slot.queued, slot.retries, slot.firstTx = 0, 0, 0
		// slot.raw keeps its backing array for reuse after reboot.
	}
	m.qHead, m.qLen = 0, 0
	m.sending = false
	m.disarmAckWait()
	m.dup.Reset()
	m.dupKept = false
	m.lplSleeping = false
	m.down = true
	m.lingerUntil = 0
	m.lplResetJumps()
}

// Boot re-primes the MAC after a reboot: an off radio may be woken to
// send again, and the LPL duty cycle restarts (a no-op when LPL is off).
func (m *MAC) Boot() {
	m.down = false
	m.lplInit()
}

// Send queues a frame for CSMA/CA transmission. The source address and
// sequence number are filled in by the MAC; the payload is copied into
// the queue slot's encode buffer, so the caller's slice may be reused
// the moment Send returns. sent may be nil. With the radio off, Send
// fails with ErrRadioOff unless LPL may wake it: never between Reset
// and Boot.
func (m *MAC) Send(f Frame, sent SentFunc) error {
	if m.rad.State() == radio.Off {
		if !m.cfg.LPL || m.down {
			return ErrRadioOff
		}
		m.lplWakeForSend()
	}
	if m.qLen >= QueueCap {
		m.stats.QueueDrops++
		if m.tel.Recording() {
			m.tel.Emit(m.id, telemetry.LayerMAC, "queue-drop",
				telemetry.Node("dst", f.Dst),
				telemetry.Int("depth", m.qLen))
		}
		return ErrQueueFull
	}
	f.Src = m.id
	m.seq++
	f.Seq = m.seq
	slot := &m.q[(m.qHead+m.qLen)%len(m.q)]
	raw, err := f.AppendEncode(slot.raw[:0])
	if err != nil {
		return err
	}
	slot.raw = raw
	// Re-point the payload at the slot's wire image: the queue must not
	// alias caller memory, and the encode done here is the one reused for
	// every (re)transmission of this frame.
	f.Payload = raw[headerLen : len(raw)-fcsLen]
	slot.frame = f
	slot.sent = sent
	slot.queued = m.eng.Now()
	slot.retries = 0
	slot.firstTx = 0
	m.qLen++
	if m.tel.Recording() {
		m.tel.Emit(m.id, telemetry.LayerMAC, "enqueue",
			telemetry.Node("dst", f.Dst),
			telemetry.Int("type", int(f.Type)),
			telemetry.Int("depth", m.qLen))
	}
	m.kick()
	return nil
}

// kick starts servicing the queue head if the MAC is idle.
func (m *MAC) kick() {
	if m.sending || m.qLen == 0 {
		return
	}
	m.sending = true
	m.attempt(MinBE, 0)
}

// attempt schedules one backoff-then-CCA round for the queue head. At
// most one attempt chain is in flight per MAC (the chain either
// finishes the head or schedules its successor), so the round state
// lives in be/csmaRetries and the callback is the pre-bound attemptCb.
func (m *MAC) attempt(be, retries int) {
	m.be, m.csmaRetries = be, retries
	m.attemptEpoch = m.epoch
	backoff := sim.Time(m.rng.Intn(1<<be)) * UnitBackoff
	m.eng.After(backoff, m.attemptCb)
}

// deferAttempt re-runs the current round after a one-unit defer (our
// own auto-ack was on the air at CCA time).
func (m *MAC) deferAttempt() { m.attempt(m.be, m.csmaRetries) }

// attemptFire performs the CCA round scheduled by attempt.
func (m *MAC) attemptFire() {
	if m.epoch != m.attemptEpoch {
		return // link layer was reset meanwhile
	}
	if m.qLen == 0 { // queue flushed meanwhile
		m.sending = false
		return
	}
	if m.rad.State() == radio.Off {
		if !m.cfg.LPL || m.down {
			m.finish(ErrRadioOff)
			return
		}
		m.lplWakeForSend()
	}
	if m.rad.State() == radio.TX {
		// Our own auto-ack is on the air; defer one backoff unit.
		m.eng.After(UnitBackoff, m.deferCb)
		return
	}
	if m.med.ChannelBusy(m, radio.CCAThresholdDBm) {
		m.stats.BackoffRetries++
		if m.tel.Recording() {
			m.tel.Emit(m.id, telemetry.LayerMAC, "cca-busy",
				telemetry.Int("round", m.csmaRetries+1))
		}
		if m.csmaRetries+1 > MaxCSMABackoffs {
			m.stats.ChannelAccess++
			m.finish(ErrChannelAccess)
			return
		}
		nextBE := m.be + 1
		if nextBE > MaxBE {
			nextBE = MaxBE
		}
		m.attempt(nextBE, m.csmaRetries+1)
		return
	}
	m.transmit()
}

// transmit puts the queue head's pre-encoded wire image on the air and
// schedules completion. The medium copies the bytes synchronously, so
// the slot buffer stays ours.
func (m *MAC) transmit() {
	head := &m.q[m.qHead]
	m.rad.SetState(radio.TX)
	airtime, err := m.med.Transmit(m, head.raw)
	if err != nil {
		m.rad.SetState(radio.RX)
		m.finish(err)
		return
	}
	if head.firstTx == 0 {
		head.firstTx = m.eng.Now()
	}
	m.eng.After(airtime+radio.TurnaroundTime, m.txDoneCb)
}

// txDone is the end-of-airtime completion for the queue head.
func (m *MAC) txDone() {
	if m.epoch != m.attemptEpoch {
		return // link layer was reset mid-flight
	}
	if m.qLen == 0 { // defensive: reset handling should have tripped the epoch
		m.sending = false
		return
	}
	head := &m.q[m.qHead]
	m.rad.SetState(radio.RX)
	m.stats.Sent++
	switch head.frame.Type {
	case TypeData:
		m.stats.SentData++
	case TypeBeacon:
		m.stats.SentBeacon++
	case TypeControl:
		m.stats.SentControl++
	case TypeAck:
		m.stats.SentMACAcks++
	}
	if m.tel.Recording() {
		m.tel.Emit(m.id, telemetry.LayerMAC, "sent",
			telemetry.Node("dst", head.frame.Dst),
			telemetry.Int("type", int(head.frame.Type)),
			telemetry.Int("seq", int(head.frame.Seq)),
			telemetry.Int("tries", head.retries+1))
	}
	if m.cfg.LinkAcks && head.frame.Dst != phys.Broadcast {
		m.armAckWait(head.frame)
		return
	}
	// LPL broadcast: repeat the frame until every neighbor's wake
	// window has been covered.
	if m.cfg.LPL && head.frame.Dst == phys.Broadcast {
		if !m.lplBroadcastDone(head.firstTx) {
			m.stats.FrameRetries++
			m.attempt(0, 0)
			return
		}
	}
	m.finish(nil)
}

// armAckWait starts the auto-ack timeout for the queue head. The
// timeout is a pooled handle-free event; disarmAckWait neutralises it
// by counting a stale firing rather than cancelling.
func (m *MAC) armAckWait(f Frame) {
	m.awaitSeq = f.Seq
	m.awaitDst = f.Dst
	m.ackArmed = true
	m.eng.After(AckWait, m.ackTimeoutCb)
}

// disarmAckWait neutralises the pending ack timeout, if any. AckWait is
// a constant, so outstanding timeout events fire in arm order:
// counting one stale firing per disarm swallows exactly the disarmed
// timers and no others.
func (m *MAC) disarmAckWait() {
	if m.ackArmed {
		m.ackArmed = false
		m.ackStale++
	}
}

// onAckTimeout retries the queue head or abandons it.
func (m *MAC) onAckTimeout() {
	if m.ackStale > 0 {
		m.ackStale-- // a disarmed (acked or reset) wait; ignore
		return
	}
	if !m.ackArmed {
		return
	}
	m.ackArmed = false
	if m.qLen == 0 {
		m.sending = false
		return
	}
	head := &m.q[m.qHead]
	lplRetry := m.cfg.LPL && m.lplShouldRetry(head)
	if head.retries < MaxFrameRetries || lplRetry {
		head.retries++
		m.stats.FrameRetries++
		if m.tel.Recording() {
			m.tel.Emit(m.id, telemetry.LayerMAC, "ack-timeout",
				telemetry.Node("dst", head.frame.Dst),
				telemetry.Int("seq", int(head.frame.Seq)),
				telemetry.Int("retry", head.retries))
		}
		if m.cfg.LPL {
			// LPL repeats back-to-back: the peer is asleep, not
			// contended — the next copy must land inside its upcoming
			// wake window.
			m.attempt(0, 0)
			return
		}
		// Widen the backoff window on every retry: a retry drawn from
		// the same small window as the original lands back inside a
		// periodic interferer's burst (two report chains forwarding in
		// lockstep); spreading retries over progressively longer
		// windows breaks the phase lock.
		be := MinBE + head.retries
		if be > MaxBE {
			be = MaxBE
		}
		m.attempt(be, 0)
		return
	}
	m.stats.NoAck++
	if m.tel.Recording() {
		m.tel.Emit(m.id, telemetry.LayerMAC, "no-ack",
			telemetry.Node("dst", head.frame.Dst),
			telemetry.Int("seq", int(head.frame.Seq)))
	}
	m.finish(ErrNoAck)
}

// autoAck transmits the hardware acknowledgement for a received unicast
// frame, one turnaround after reception, bypassing the CSMA queue as
// the CC2420's auto-ack does. The pending ack rides a pooled ackJob
// through pre-bound start/done callbacks, so the receive path stays
// allocation-free.
func (m *MAC) autoAck(seq byte, to phys.NodeID) {
	var j *ackJob
	if n := len(m.ackPool); n > 0 {
		j = m.ackPool[n-1]
		m.ackPool[n-1] = nil
		m.ackPool = m.ackPool[:n-1]
	} else {
		j = &ackJob{}
	}
	j.seq, j.dst, j.ep = seq, to, m.epoch
	m.eng.AfterArg(radio.TurnaroundTime, m.ackStartCb, j)
}

func (m *MAC) releaseAck(j *ackJob) {
	if len(m.ackPool) < ackPoolCap {
		m.ackPool = append(m.ackPool, j)
	}
}

// ackStart fires one turnaround after reception and puts the ack on the
// air.
func (m *MAC) ackStart(a any) {
	j := a.(*ackJob)
	if m.epoch != j.ep {
		m.releaseAck(j)
		return // link layer was reset meanwhile
	}
	if m.rad.State() != radio.RX {
		m.releaseAck(j)
		return // busy transmitting; the peer will retry
	}
	ack := Frame{Type: TypeAck, Seq: j.seq, Dst: j.dst, Src: m.id}
	raw, err := ack.AppendEncode(m.ackBuf[:0])
	if err != nil {
		m.releaseAck(j)
		return
	}
	m.ackBuf = raw // the medium copies synchronously; reuse next time
	m.rad.SetState(radio.TX)
	airtime, err := m.med.Transmit(m, raw)
	if err != nil {
		m.rad.SetState(radio.RX)
		m.releaseAck(j)
		return
	}
	m.eng.AfterArg(airtime+radio.TurnaroundTime, m.ackDoneCb, j)
}

// ackDone returns the radio to RX once the ack's airtime ends.
func (m *MAC) ackDone(a any) {
	j := a.(*ackJob)
	ep := j.ep
	m.releaseAck(j)
	if m.epoch != ep {
		return
	}
	m.rad.SetState(radio.RX)
	m.stats.Sent++
	m.stats.SentMACAcks++
}

// finish pops the queue head, notifies, and services the next frame.
// The popped slot's encode buffer stays with the ring; out.frame's
// payload aliases it and is valid only for the duration of the
// callbacks below (see the SentFunc borrow contract).
func (m *MAC) finish(err error) {
	if m.qLen == 0 {
		m.sending = false
		return
	}
	slot := &m.q[m.qHead]
	out := *slot
	slot.frame = Frame{}
	slot.sent = nil
	slot.queued, slot.retries, slot.firstTx = 0, 0, 0
	m.qHead = (m.qHead + 1) % len(m.q)
	m.qLen--
	m.sending = false
	if m.tel.Recording() && err != nil {
		m.tel.Emit(m.id, telemetry.LayerMAC, "tx-fail",
			telemetry.Node("dst", out.frame.Dst),
			telemetry.String("err", err.Error()))
	}
	// Link estimation feedback runs before the sender's completion
	// callback: routing's repair logic reads the neighbor table from its
	// send callback and must see this outcome already folded in.
	if m.txObserver != nil && out.frame.Dst != phys.Broadcast &&
		(out.frame.Type == TypeData || out.frame.Type == TypeControl) &&
		!errors.Is(err, ErrRadioOff) {
		m.txObserver(out.frame.Dst, err)
	}
	if out.sent != nil {
		out.sent(out.frame, err)
	}
	m.kick()
}

// OnFrame is the medium's delivery upcall. A corrupted frame (bit
// errors on the air, or injected burst corruption) is an FCS failure:
// CRC-16/CCITT detects every single-bit error at every frame length the
// MAC emits (TestCorruptedFrameFailsFCS), so it is counted as one
// without being checked. A frame the medium verified (info.Verified:
// intact, and the FCS check passed once at transmit time) is parsed
// without checking it again; every other frame goes through the full
// Decode.
//
// A verified non-ack frame from the duplicate table's kept row is a
// repeat copy (an LPL sender repeats each frame for lplRepeatWindow,
// and every awake neighbor hears each copy): it gets what the table
// path gives a duplicate, with no parse and no table scan.
func (m *MAC) OnFrame(raw []byte, info medium.RxInfo) {
	if !info.Corrupted && m.rxFault != nil && m.rxFault(info.From) {
		info.Corrupted = true // injected burst corruption
	}
	if info.Verified && !info.Corrupted && m.dupKept && raw[1] == m.dupSeq &&
		FrameType(raw[0]) != TypeAck && frameSrc(raw) == m.dupSrc {
		m.onDuplicate(m.dupSeq, m.dupSrc, frameDst(raw))
		return
	}
	var f Frame
	var err error
	switch {
	case info.Corrupted:
		err = ErrBadCRC
	case info.Verified:
		f = parse(raw)
	default:
		f, err = Decode(raw)
	}
	if err != nil {
		m.stats.CRCFailures++
		if m.tel.Recording() {
			m.tel.Emit(m.id, telemetry.LayerMAC, "crc-fail",
				telemetry.Node("from", info.From))
		}
		return
	}
	if f.Type == TypeAck {
		if f.Dst == m.id && m.ackArmed && f.Seq == m.awaitSeq && f.Src == m.awaitDst {
			m.disarmAckWait()
			m.stats.AckedOK++
			if m.tel.Recording() {
				m.tel.Emit(m.id, telemetry.LayerMAC, "acked",
					telemetry.Node("from", f.Src),
					telemetry.Int("seq", int(f.Seq)))
			}
			m.finish(nil)
		}
		return // MAC acks never reach the stack
	}
	if !m.rememberSeq(f.Src, f.Seq) {
		m.onDuplicate(f.Seq, f.Src, f.Dst)
		return
	}
	m.lplTouch()
	m.stats.Received++
	if m.cfg.LinkAcks && f.Dst == m.id {
		m.autoAck(f.Seq, f.Src)
	}
	m.deliver(f, info)
}

// onDuplicate re-acks but does not redeliver a retransmission already
// taken: the sender missed our ack, not us missing the frame.
func (m *MAC) onDuplicate(seq byte, src, dst phys.NodeID) {
	m.lplTouch()
	if m.cfg.LinkAcks && dst == m.id {
		m.autoAck(seq, src)
	}
}

// rememberSeq records the latest sequence number heard from a source
// and reports whether it is new; false means a duplicate of the last
// frame taken from src. A source not in the table takes a new row,
// evicting the oldest-inserted source once all dupTableSize are in use.
// Either way (src, seq) becomes the kept row.
func (m *MAC) rememberSeq(src phys.NodeID, seq byte) bool {
	m.dupSrc, m.dupSeq, m.dupKept = src, seq, true
	if last, ok := m.dup.Get(src); ok {
		if *last == seq {
			return false
		}
		*last = seq
		return true
	}
	*m.dup.Put(src) = seq
	return true
}
