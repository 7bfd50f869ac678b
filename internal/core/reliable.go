package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
)

// This file implements the paper's reliable one-hop message exchange
// protocol between the command interpreter and the runtime controllers:
//
//   - commands that fit one packet use one acknowledgement combined
//     with a timeout;
//   - commands translated into a sequence of packets operate in
//     batches, one acknowledgement per batch, with the batch size
//     adjusted dynamically to link quality (smaller batches when
//     packets are more likely to get lost);
//   - lost packets are detected on the receiving side through missing
//     sequence numbers (the cumulative ack names the next expected
//     sequence number);
//   - when a group of nodes answers the same command, each waits a
//     random backoff before sending so responses do not collide.

// Envelope kinds on ControllerPort.
const (
	envData byte = 0
	envAck  byte = 1
)

// envFlagAckReq asks the receiver to acknowledge upon this message (set
// on the last message of each batch).
const envFlagAckReq byte = 1 << 0

// xferData is one message of a transfer: its place in the transfer, the
// ack request flag, and the payload.
type xferData struct {
	id, seq, total uint16
	flags          byte
	payload        []byte
}

func (m *xferData) fields(c *codec) {
	c.tag(envData)
	c.u16(&m.id)
	c.u16(&m.seq)
	c.u16(&m.total)
	c.u8(&m.flags)
	c.rest(&m.payload)
}

// xferHeaderLen is the size of a data message around its payload.
var xferHeaderLen = wireLen(&xferData{})

// maxMsgLen is the largest message one data message carries.
var maxMsgLen = stack.PayloadCeiling - xferHeaderLen

// xferAck acknowledges a transfer up to, not including, seq next.
type xferAck struct{ id, next uint16 }

func (m *xferAck) fields(c *codec) {
	c.tag(envAck)
	c.u16(&m.id)
	c.u16(&m.next)
}

// Fixed parameters of the exchange protocol.
const (
	// MaxBatch bounds the adaptive batch size.
	MaxBatch = 8
	// GroupBackoffMax is the random delay range for group responses.
	GroupBackoffMax = 300 * time.Millisecond
)

// ReliableConfig tunes the exchange protocol.
type ReliableConfig struct {
	// AckTimeout is how long the sender waits for a batch ack.
	AckTimeout sim.Time
	// MaxRetries bounds retransmission rounds per transfer.
	MaxRetries int
	// InitBatch is the first window's batch size (1..MaxBatch).
	InitBatch int
	// FixedBatch disables the dynamic batch-size adjustment (ablation
	// D3): the window stays at InitBatch regardless of loss.
	FixedBatch bool
}

// DefaultReliableConfig returns parameters tuned for one-hop exchanges
// inside the paper's 500 ms command response window.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		AckTimeout: 60 * time.Millisecond,
		MaxRetries: 4,
		InitBatch:  2,
	}
}

// ErrXferFailed reports a transfer abandoned after MaxRetries.
var ErrXferFailed = errors.New("core: reliable transfer failed")

// ErrAckTimeout is the ErrXferFailed variant for the common failure
// mode: every retransmission window elapsed without an acknowledgement.
// It wraps ErrXferFailed, so errors.Is(err, ErrXferFailed) keeps
// matching; callers that care can distinguish it from other transfer
// failures (and from ErrBreakerOpen / ErrNoRoute) with errors.Is.
var ErrAckTimeout = fmt.Errorf("%w: no acknowledgement", ErrXferFailed)

// Transient reports whether err is a transient delivery failure — a
// reliable-transfer loss that a later retry may well succeed at — as
// opposed to a structural refusal (no route toward the destination, an
// open circuit breaker) that retrying cannot fix. The service edge uses
// this to decide what to surface to operators as retryable.
func Transient(err error) bool {
	return errors.Is(err, ErrXferFailed)
}

// MessageFunc receives one in-order message of a transfer. broadcast
// reports that the message arrived in a frame addressed to everyone
// (the receiver should apply a group backoff before replying).
type MessageFunc func(from phys.NodeID, payload []byte, info medium.RxInfo, broadcast bool)

// ReliableStats counts protocol events.
type ReliableStats struct {
	DataSent        uint64
	Retransmissions uint64
	AcksSent        uint64
	AcksReceived    uint64
	Duplicates      uint64
	Failures        uint64
	Completed       uint64
}

type outXfer struct {
	to      phys.NodeID
	id      uint16
	msgs    [][]byte
	base    int // first unacked message
	batch   int
	retries int
	timer   *sim.Event
	done    func(error)
}

type inKey struct {
	from phys.NodeID
	id   uint16
}

type inXfer struct {
	nextExpected int
	total        int
	// pending holds the pieces that arrived ahead of nextExpected, at
	// most one per seq.
	pending []inPiece
}

type inPiece struct {
	seq int
	buf []byte
}

// find returns the index of piece seq in pending, or -1.
func (x *inXfer) find(seq int) int {
	for i, p := range x.pending {
		if p.seq == seq {
			return i
		}
	}
	return -1
}

// Endpoint is one side of the exchange protocol (the interpreter's
// workstation or a node's runtime controller both embed one).
type Endpoint struct {
	eng    *sim.Engine
	st     *stack.Stack
	rng    *sim.Rand
	cfg    ReliableConfig
	onMsg  MessageFunc
	nextID uint16
	out    map[uint32]*outXfer
	in     sim.Recent[inKey, inXfer]
	stats  ReliableStats
	// tel, when set, receives reliable-exchange telemetry events.
	tel *telemetry.Recorder
}

// SetTelemetry points the endpoint at a telemetry recorder (nil
// detaches).
func (e *Endpoint) SetTelemetry(rec *telemetry.Recorder) { e.tel = rec }

const inCacheSize = 64

// NewEndpoint subscribes the exchange protocol on ControllerPort of st.
func NewEndpoint(eng *sim.Engine, st *stack.Stack, cfg ReliableConfig, onMsg MessageFunc) (*Endpoint, error) {
	if onMsg == nil {
		return nil, errors.New("core: nil message callback")
	}
	if cfg.AckTimeout <= 0 || cfg.InitBatch < 1 || cfg.InitBatch > MaxBatch {
		return nil, fmt.Errorf("core: invalid reliable config %+v", cfg)
	}
	e := &Endpoint{
		eng:   eng,
		st:    st,
		rng:   eng.Rand().Fork(fmt.Sprintf("reliable-%d", st.NodeID())),
		cfg:   cfg,
		onMsg: onMsg,
		out:   make(map[uint32]*outXfer),
		in:    sim.NewRecent[inKey, inXfer](inCacheSize),
	}
	if err := st.Subscribe(ControllerPort, e.onPacket); err != nil {
		return nil, err
	}
	return e, nil
}

// Stats returns a snapshot of the protocol counters.
func (e *Endpoint) Stats() ReliableStats { return e.stats }

// GroupBackoff returns a random response delay for group operations.
func (e *Endpoint) GroupBackoff() sim.Time {
	return e.rng.Jitter(GroupBackoffMax)
}

// Send starts a reliable transfer of msgs to the one-hop neighbor. The
// first window goes out after delay (pass GroupBackoff() when replying
// to a broadcast command, 0 otherwise). done is called with nil on full
// acknowledgement or ErrXferFailed after MaxRetries; it may be nil.
func (e *Endpoint) Send(to phys.NodeID, msgs [][]byte, delay sim.Time, done func(error)) error {
	if len(msgs) == 0 {
		return errors.New("core: empty transfer")
	}
	if len(msgs) > 0xFFFF {
		return errors.New("core: transfer too large")
	}
	for _, m := range msgs {
		if len(m) > maxMsgLen {
			return fmt.Errorf("core: message of %d bytes exceeds payload ceiling", len(m))
		}
	}
	e.nextID++
	x := &outXfer{
		to:    to,
		id:    e.nextID,
		msgs:  msgs,
		batch: e.cfg.InitBatch,
		done:  done,
	}
	if to == phys.Broadcast {
		// Broadcast commands are fire-and-forget: per-receiver acks
		// would collide (that is exactly why responders use a group
		// backoff for their replies instead).
		e.eng.After(delay, func() {
			x.batch = len(x.msgs)
			e.sendWindow(x)
			e.stats.Completed++
			if x.done != nil {
				x.done(nil)
			}
		})
		return nil
	}
	e.out[outKey(to, x.id)] = x
	if e.tel.Recording() {
		e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "xfer-start",
			telemetry.Node("to", to),
			telemetry.Int("id", int(x.id)),
			telemetry.Int("msgs", len(msgs)))
	}
	e.eng.After(delay, func() { e.sendWindow(x) })
	return nil
}

func outKey(to phys.NodeID, id uint16) uint32 { return uint32(to)<<16 | uint32(id) }

// sendWindow transmits msgs[base : base+batch), marking the last with
// an ack request, and arms the timeout.
func (e *Endpoint) sendWindow(x *outXfer) {
	end := x.base + x.batch
	if end > len(x.msgs) {
		end = len(x.msgs)
	}
	if e.tel.Recording() {
		e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "window",
			telemetry.Node("to", x.to),
			telemetry.Int("id", int(x.id)),
			telemetry.Int("base", x.base),
			telemetry.Int("batch", end-x.base))
	}
	for i := x.base; i < end; i++ {
		m := xferData{id: x.id, seq: uint16(i), total: uint16(len(x.msgs)), payload: x.msgs[i]}
		if i == end-1 && x.to != phys.Broadcast {
			m.flags = envFlagAckReq
		}
		data, _ := Encode(&m) // fixed-width fields only: cannot fail
		// MAC queue overflow surfaces as a lost packet and is repaired by
		// the retransmission machinery.
		if err := sendOneHop(e.st, ControllerPort, x.to, data); err == nil {
			e.stats.DataSent++
		}
	}
	if x.to != phys.Broadcast {
		e.armTimer(x)
	}
}

func (e *Endpoint) armTimer(x *outXfer) {
	if x.timer != nil {
		e.eng.Cancel(x.timer)
	}
	x.timer = e.eng.Schedule(e.cfg.AckTimeout, func() { e.onTimeout(x) })
}

func (e *Endpoint) onTimeout(x *outXfer) {
	if _, live := e.out[outKey(x.to, x.id)]; !live {
		return
	}
	x.retries++
	if x.retries > e.cfg.MaxRetries {
		e.stats.Failures++
		delete(e.out, outKey(x.to, x.id))
		if e.tel.Recording() {
			e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "xfer-fail",
				telemetry.Node("to", x.to),
				telemetry.Int("id", int(x.id)),
				telemetry.Int("retries", x.retries-1))
		}
		if x.done != nil {
			x.done(fmt.Errorf("%w: to %d after %d retries", ErrAckTimeout, x.to, x.retries-1))
		}
		return
	}
	e.stats.Retransmissions++
	if e.tel.Recording() {
		e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "retry",
			telemetry.Node("to", x.to),
			telemetry.Int("id", int(x.id)),
			telemetry.Int("retries", x.retries),
			telemetry.Int("batch", x.batch))
	}
	// Loss signal: shrink the batch ("a smaller batch size is preferred
	// when packets are more likely to get lost").
	if !e.cfg.FixedBatch {
		x.batch /= 2
		if x.batch < 1 {
			x.batch = 1
		}
	}
	// Capped exponential backoff before the retransmission round: a
	// peer that missed a whole window is likely rebooting or jammed, and
	// immediate resends would collide with whatever caused the loss. The
	// backoff event reuses x.timer, so an ack arriving meanwhile (a
	// straggler from the previous window) cancels it via armTimer.
	delay := e.retryDelay(x.retries)
	if delay <= 0 {
		e.sendWindow(x)
		return
	}
	x.timer = e.eng.Schedule(delay, func() {
		if _, live := e.out[outKey(x.to, x.id)]; !live {
			return
		}
		e.sendWindow(x)
	})
}

// retryDelay returns the backoff before retransmission round n
// (1-based): AckTimeout/6, doubling each round, capped at AckTimeout.
// It keeps retry rounds from hammering a peer that is rebooting or a
// channel that is jammed. Scaling with the ack timeout keeps fast-test
// configs (millisecond timeouts) fast, and the default 60 ms timeout
// still finishes a full failed transfer inside the paper's 500 ms
// command window: 5×60 ms of timeouts + 10+20+40+60 ms of backoff.
func (e *Endpoint) retryDelay(n int) sim.Time {
	d, limit := e.cfg.AckTimeout/6, e.cfg.AckTimeout
	for i := 1; i < n && d < limit; i++ {
		d *= 2
	}
	return min(d, limit)
}

// Reset abandons every transfer in flight without running completion
// callbacks — the power-failure path. The crashed side's peers still
// time out normally and surface ErrXferFailed to their callers.
func (e *Endpoint) Reset() {
	for _, x := range e.out {
		if x.timer != nil {
			e.eng.Cancel(x.timer)
			x.timer = nil
		}
	}
	e.out = make(map[uint32]*outXfer)
	e.in.Reset()
}

func (e *Endpoint) onPacket(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	var m xferData
	var ack xferAck
	switch {
	case decode(p.Data, &m) == nil:
		e.onData(&m, from, info, p.Dst == phys.Broadcast)
	case decode(p.Data, &ack) == nil:
		e.onAck(ack.id, int(ack.next), from)
	}
}

func (e *Endpoint) onAck(id uint16, nextExpected int, from phys.NodeID) {
	x, ok := e.out[outKey(from, id)]
	if !ok {
		return
	}
	e.stats.AcksReceived++
	if e.tel.Recording() {
		e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "ack-rx",
			telemetry.Node("from", from),
			telemetry.Int("id", int(id)),
			telemetry.Int("next", nextExpected))
	}
	if nextExpected > x.base {
		x.base = nextExpected
		x.retries = 0
		if x.base >= len(x.msgs) {
			// Transfer complete.
			if x.timer != nil {
				e.eng.Cancel(x.timer)
			}
			delete(e.out, outKey(from, id))
			e.stats.Completed++
			if e.tel.Recording() {
				e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "xfer-done",
					telemetry.Node("to", x.to),
					telemetry.Int("id", int(id)),
					telemetry.Int("msgs", len(x.msgs)))
			}
			if x.done != nil {
				x.done(nil)
			}
			return
		}
		// Successful batch: grow additively.
		if !e.cfg.FixedBatch && x.batch < MaxBatch {
			x.batch++
		}
		e.sendWindow(x)
		return
	}
	// Duplicate or stale ack: the receiver is missing the window head;
	// resend immediately rather than waiting out the timer.
	e.stats.Retransmissions++
	if !e.cfg.FixedBatch {
		x.batch = 1
	}
	e.sendWindow(x)
}

func (e *Endpoint) onData(m *xferData, from phys.NodeID, info medium.RxInfo, broadcast bool) {
	if m.total == 0 || m.seq >= m.total {
		return
	}
	id, seq, total, payload := m.id, int(m.seq), int(m.total), m.payload
	k := inKey{from: from, id: id}
	x, ok := e.in.Get(k)
	if !ok {
		x = e.in.Put(k)
		x.total = total
	}
	var ready [][]byte
	switch {
	case seq == x.nextExpected:
		ready = append(ready, append([]byte(nil), payload...))
		x.nextExpected++
		for i := x.find(x.nextExpected); i >= 0; i = x.find(x.nextExpected) {
			ready = append(ready, x.pending[i].buf)
			x.pending = slices.Delete(x.pending, i, i+1)
			x.nextExpected++
		}
	case seq > x.nextExpected:
		if x.find(seq) < 0 {
			x.pending = append(x.pending, inPiece{seq, append([]byte(nil), payload...)})
		} else {
			e.stats.Duplicates++
		}
	default:
		e.stats.Duplicates++
	}
	// Acknowledge at batch boundaries and when the transfer is done —
	// but never for broadcast data, which is fire-and-forget. The ack
	// is queued BEFORE the handler runs: a command that reconfigures
	// the radio (set-channel) must not cut off its own acknowledgement.
	if !broadcast && (m.flags&envFlagAckReq != 0 || x.nextExpected >= x.total) {
		e.sendAck(from, id, x.nextExpected)
	}
	for _, msg := range ready {
		e.onMsg(from, msg, info, broadcast)
	}
}

// sendOneHop hands data to st as a control packet for the one-hop
// neighbor to, on port.
func sendOneHop(st *stack.Stack, port byte, to phys.NodeID, data []byte) error {
	p := &stack.Packet{Port: port, Origin: st.NodeID(), Dst: to, TTL: 1, Flags: stack.FlagControl, Data: data}
	return st.Send(p, to, mac.TypeControl, nil)
}

func (e *Endpoint) sendAck(to phys.NodeID, id uint16, nextExpected int) {
	data, _ := Encode(&xferAck{id: id, next: uint16(nextExpected)}) // fixed-width fields only: cannot fail
	if err := sendOneHop(e.st, ControllerPort, to, data); err == nil {
		e.stats.AcksSent++
		if e.tel.Recording() {
			e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "ack-tx",
				telemetry.Node("to", to),
				telemetry.Int("id", int(id)),
				telemetry.Int("next", nextExpected))
		}
	}
}
