package core

import (
	"errors"
	"fmt"
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

// envelope layout: kind(1) xferID(2) seq(2) total(2) flags(1) payload.
const envHeaderLen = 8

// ReliableConfig tunes the exchange protocol.
type ReliableConfig struct {
	// AckTimeout is how long the sender waits for a batch ack.
	AckTimeout sim.Time
	// MaxRetries bounds retransmission rounds per transfer.
	MaxRetries int
	// InitBatch, MaxBatch bound the adaptive batch size.
	InitBatch, MaxBatch int
	// FixedBatch disables the dynamic batch-size adjustment (ablation
	// D3): the window stays at InitBatch regardless of loss.
	FixedBatch bool
	// GroupBackoffMax is the random delay range for group responses.
	GroupBackoffMax sim.Time
	// RetryBackoff is the extra delay inserted before the first
	// retransmission round, doubling on every consecutive retry up to
	// RetryBackoffCap. It keeps retry rounds from hammering a peer that
	// is rebooting or a channel that is jammed. Zero selects a default
	// scaled to AckTimeout; a negative value disables the backoff.
	RetryBackoff sim.Time
	// RetryBackoffCap caps the exponential growth of RetryBackoff
	// (zero selects a default scaled to AckTimeout).
	RetryBackoffCap sim.Time
}

// DefaultReliableConfig returns parameters tuned for one-hop exchanges
// inside the paper's 500 ms command response window.
func DefaultReliableConfig() ReliableConfig {
	return ReliableConfig{
		AckTimeout:      60 * time.Millisecond,
		MaxRetries:      4,
		InitBatch:       2,
		MaxBatch:        8,
		GroupBackoffMax: 300 * time.Millisecond,
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
	pending      map[int][]byte
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
	in     map[inKey]*inXfer
	inQ    []inKey
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
	if cfg.AckTimeout <= 0 || cfg.InitBatch < 1 || cfg.MaxBatch < cfg.InitBatch {
		return nil, fmt.Errorf("core: invalid reliable config %+v", cfg)
	}
	// Backoff defaults scale with the ack timeout so fast-test configs
	// (millisecond timeouts) stay fast and the default 60 ms timeout
	// still finishes a full failed transfer inside the paper's 500 ms
	// command window: 5×60 ms of timeouts + 10+20+40+60 ms of backoff.
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = cfg.AckTimeout / 6
	} else if cfg.RetryBackoff < 0 {
		cfg.RetryBackoff = 0
	}
	if cfg.RetryBackoffCap == 0 {
		cfg.RetryBackoffCap = cfg.AckTimeout
	} else if cfg.RetryBackoffCap < 0 {
		cfg.RetryBackoffCap = 0
	}
	e := &Endpoint{
		eng:   eng,
		st:    st,
		rng:   eng.Rand().Fork(fmt.Sprintf("reliable-%d", st.NodeID())),
		cfg:   cfg,
		onMsg: onMsg,
		out:   make(map[uint32]*outXfer),
		in:    make(map[inKey]*inXfer),
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
	return e.rng.Jitter(e.cfg.GroupBackoffMax)
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
		if envHeaderLen+len(m) > stack.PayloadCeiling {
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
		var w writer
		w.u8(envData)
		w.u16(x.id)
		w.u16(uint16(i))
		w.u16(uint16(len(x.msgs)))
		if i == end-1 && x.to != phys.Broadcast {
			w.u8(envFlagAckReq)
		} else {
			w.u8(0)
		}
		w.b = append(w.b, x.msgs[i]...)
		p := &stack.Packet{
			Port:   ControllerPort,
			Origin: e.st.NodeID(),
			Dst:    x.to,
			TTL:    1,
			Flags:  stack.FlagControl,
			Data:   w.b,
		}
		// One-hop direct transmission; MAC queue overflow surfaces as a
		// lost packet and is repaired by the retransmission machinery.
		if err := e.st.Send(p, x.to, mac.TypeControl, nil); err == nil {
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

// retryDelay returns the backoff before retransmission round n (1-based).
func (e *Endpoint) retryDelay(n int) sim.Time {
	d := e.cfg.RetryBackoff
	if d <= 0 {
		return 0
	}
	for i := 1; i < n && d < e.cfg.RetryBackoffCap; i++ {
		d *= 2
	}
	if d > e.cfg.RetryBackoffCap {
		d = e.cfg.RetryBackoffCap
	}
	return d
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
	e.in = make(map[inKey]*inXfer)
	e.inQ = nil
}

func (e *Endpoint) onPacket(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	if len(p.Data) < 1 {
		return
	}
	switch p.Data[0] {
	case envData:
		e.onData(p.Data, from, info, p.Dst == phys.Broadcast)
	case envAck:
		e.onAck(p.Data, from)
	}
}

func (e *Endpoint) onAck(data []byte, from phys.NodeID) {
	r := reader{b: data}
	r.u8() // kind
	id := r.u16()
	nextExpected := int(r.u16())
	if r.fail() {
		return
	}
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
		if !e.cfg.FixedBatch && x.batch < e.cfg.MaxBatch {
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

func (e *Endpoint) onData(data []byte, from phys.NodeID, info medium.RxInfo, broadcast bool) {
	r := reader{b: data}
	r.u8() // kind
	id := r.u16()
	seq := int(r.u16())
	total := int(r.u16())
	flags := r.u8()
	if r.fail() || total == 0 || seq >= total {
		return
	}
	payload := data[envHeaderLen:]
	k := inKey{from: from, id: id}
	x, ok := e.in[k]
	if !ok {
		x = &inXfer{total: total, pending: make(map[int][]byte)}
		e.in[k] = x
		e.inQ = append(e.inQ, k)
		if len(e.inQ) > inCacheSize {
			old := e.inQ[0]
			e.inQ = e.inQ[1:]
			delete(e.in, old)
		}
	}
	var ready [][]byte
	switch {
	case seq == x.nextExpected:
		ready = append(ready, append([]byte(nil), payload...))
		x.nextExpected++
		for {
			buf, ok := x.pending[x.nextExpected]
			if !ok {
				break
			}
			delete(x.pending, x.nextExpected)
			ready = append(ready, buf)
			x.nextExpected++
		}
	case seq > x.nextExpected:
		if _, dup := x.pending[seq]; !dup {
			x.pending[seq] = append([]byte(nil), payload...)
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
	if !broadcast && (flags&envFlagAckReq != 0 || x.nextExpected >= x.total) {
		e.sendAck(from, id, x.nextExpected)
	}
	for _, msg := range ready {
		e.onMsg(from, msg, info, broadcast)
	}
}

func (e *Endpoint) sendAck(to phys.NodeID, id uint16, nextExpected int) {
	var w writer
	w.u8(envAck)
	w.u16(id)
	w.u16(uint16(nextExpected))
	p := &stack.Packet{
		Port:   ControllerPort,
		Origin: e.st.NodeID(),
		Dst:    to,
		TTL:    1,
		Flags:  stack.FlagControl,
		Data:   w.b,
	}
	if err := e.st.Send(p, to, mac.TypeControl, nil); err == nil {
		e.stats.AcksSent++
		if e.tel.Recording() {
			e.tel.Emit(e.st.NodeID(), telemetry.LayerReliable, "ack-tx",
				telemetry.Node("to", to),
				telemetry.Int("id", int(id)),
				telemetry.Int("next", nextExpected))
		}
	}
}
