// Package routing provides the routing protocols LiteView commands ride
// on. The paper's first implementation challenge is protocol
// independence: ping and traceroute must work over any routing protocol
// without recompilation, selected at runtime by port number ("we let the
// geographic forwarding protocol listen on the port number 10").
//
// Every protocol here is just a port subscriber on the node's stack.
// Routed packets encapsulate an inner port: when a packet reaches its
// final destination the router hands the inner packet to the local
// subscriber of that port, so the command process on the destination
// node receives it exactly as if it had arrived directly. Routers also
// implement the link-quality padding hook: at every hop the receiving
// router appends the incoming link's LQI/RSSI to the packet's padding
// region when the originator asked for it.
//
// Three protocols are provided:
//
//   - Geographic forwarding (greedy, needs a position oracle) — the
//     protocol the paper's examples use on port 10.
//   - Flooding (TTL-scoped, duplicate-suppressed).
//   - Collection tree (cost-gradient toward a root, maintained by
//     periodic advertisements; delivers only to the root, like real
//     collection protocols).
package routing

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/telemetry"
)

// Well-known ports for the bundled protocols.
const (
	// GeographicPort is the paper's example: geographic forwarding
	// listening on port 10.
	GeographicPort byte = 10
	// FloodingPort hosts the flooding protocol.
	FloodingPort byte = 11
	// TreePort hosts the collection tree protocol.
	TreePort byte = 12
)

// innerPortControl marks protocol-internal traffic (e.g. tree
// advertisements); it is never delivered to applications.
const innerPortControl byte = 0

// routedHeader is prepended to the outer packet data:
//
//	offset size field
//	0      1    inner port (the subscriber at the final destination)
//	1      2    packet id (per-origin sequence, for duplicate detection)
const routedHeaderLen = 3

func encodeRouted(innerPort byte, id uint16, data []byte) []byte {
	buf := make([]byte, routedHeaderLen+len(data))
	buf[0] = innerPort
	binary.BigEndian.PutUint16(buf[1:3], id)
	copy(buf[routedHeaderLen:], data)
	return buf
}

func decodeRouted(data []byte) (innerPort byte, id uint16, inner []byte, err error) {
	if len(data) < routedHeaderLen {
		return 0, 0, nil, errors.New("routing: routed data shorter than header")
	}
	return data[0], binary.BigEndian.Uint16(data[1:3]), data[routedHeaderLen:], nil
}

// Forwarding parameters, sized for the paper's eight-hop testbed.
const (
	// queueCap bounds the routing-layer forwarding queue ("the
	// underlying routing protocol has a queueing mechanism to hold
	// packets temporarily").
	queueCap = 8
	// processingDelay models per-hop packet handling time.
	processingDelay = 500 * time.Microsecond
	// baseJitterMax is a small random wait applied to every forward,
	// modelling per-hop processing variance and keeping forwarding
	// chains at different nodes from locking into phase with each
	// other (phase-locked chains collide at hidden terminals).
	baseJitterMax = 2 * time.Millisecond
	// busyJitterMax is the random extra wait added before sending when
	// the layer below is busy ("if the routing layer determines that
	// the channel is busy, it will add random jitters before sending
	// out packets in the queue").
	busyJitterMax = 8 * time.Millisecond
)

// Config tunes a router's forwarding behaviour.
type Config struct {
	// DefaultTTL is the hop budget for originated packets.
	DefaultTTL byte
	// MinLQI gates neighbor selection: links whose smoothed LQI falls
	// below it are not used as next hops or parents (marginal links
	// flap and black-hole traffic). Zero disables gating.
	MinLQI float64
	// ParkTTL bounds how long a packet may sit parked waiting for route
	// discovery before it is dropped with cause park.
	ParkTTL sim.Time
}

// DefaultConfig returns forwarding parameters sized for the paper's
// eight-hop testbed.
func DefaultConfig() Config {
	return Config{
		DefaultTTL: 32,
		MinLQI:     80,
		// Outlive a full on-demand discovery cycle (retries included)
		// with slack, so repair gets a fair chance first.
		ParkTTL: (MaxDiscoveryRetries+1)*DiscoveryTimeout + 2*time.Second,
	}
}

// Stats counts routing outcomes at one node.
type Stats struct {
	Originated      uint64
	Forwarded       uint64
	Delivered       uint64 // packets handed to a local inner port
	DroppedNoRoute  uint64
	DroppedTTL      uint64
	DroppedDup      uint64
	DroppedQueue    uint64
	DroppedRadioOff uint64 // MAC hand-offs refused because the radio was off
	PadExhausted    uint64
	LinkRepairs     uint64 // next hops condemned after consecutive no-acks
	Salvaged        uint64 // failed packets re-sent through an alternate hop
	ParkDrops       uint64 // parked packets expired waiting for discovery
}

// Errors from the routing layer.
var (
	ErrNoRoute       = errors.New("routing: no route to destination")
	ErrSelfRoute     = errors.New("routing: destination is the local node")
	ErrDataLen       = errors.New("routing: data too long for payload ceiling")
	ErrNotForRoot    = errors.New("routing: collection tree only delivers to its root")
	ErrNoUnicastPath = errors.New("routing: protocol has no unicast next hop")
	// ErrRouteDiscovery is returned by on-demand protocols while a
	// route request is outstanding: the router parks the packet and
	// retries when the strategy reports the route resolved.
	ErrRouteDiscovery = errors.New("routing: route discovery in progress")
)

// strategy is the per-protocol next-hop decision.
type strategy interface {
	// name is the human-readable protocol name LiteView prints
	// ("Name of protocol: geographic forwarding").
	name() string
	// nextHop picks the MAC-level next hop for p, or reports no route.
	nextHop(p *stack.Packet) (phys.NodeID, error)
	// onControl handles protocol-internal packets (innerPortControl).
	onControl(p *stack.Packet, from phys.NodeID, info medium.RxInfo)
}

// linkObserver is an optional strategy extension: protocols that keep
// route state (AODV-style) learn about link-layer delivery failures of
// frames they forwarded.
type linkObserver interface {
	onSendResult(next phys.NodeID, err error)
}

type queued struct {
	pkt  *stack.Packet
	next phys.NodeID
	ctl  bool
}

// parkedPkt is one packet held for route discovery, stamped so stale
// entries can be expired when the destination stays unreachable.
type parkedPkt struct {
	pkt *stack.Packet
	at  sim.Time
}

// Router is a routing protocol instance on one node.
type Router struct {
	eng   *sim.Engine
	st    *stack.Stack
	table *neighbor.Table
	rng   *sim.Rand
	cfg   Config
	port  byte
	strat strategy

	queue   []queued
	sending bool
	nextID  uint16
	// seen dedups routed packets by dedupKey(origin, id).
	seen sim.Recent[uint32, struct{}]
	// pending parks packets whose route is still being discovered;
	// parkTimer holds the per-destination expiry event.
	pending   map[phys.NodeID][]parkedPkt
	parkTimer map[phys.NodeID]*sim.Event
	// failStreak counts consecutive no-acks per next hop; reaching
	// neighbor.SuspectAfter triggers link repair.
	failStreak map[phys.NodeID]int
	stats      Stats
	// tel, when set, receives routing-layer telemetry events.
	tel *telemetry.Recorder
	// query is the packet NextHop asks the strategy about, reused: no
	// strategy retains the packet it is handed.
	query stack.Packet
}

// SetTelemetry points the router at a telemetry recorder (nil detaches).
func (r *Router) SetTelemetry(rec *telemetry.Recorder) { r.tel = rec }

// dropCause is why the router discarded a packet; the value is the
// cause label of the telemetry "drop" event.
type dropCause string

// Drop causes, one per Stats counter.
const (
	dropNoRoute  dropCause = "noroute"   // DroppedNoRoute
	dropTTL      dropCause = "ttl"       // DroppedTTL
	dropDup      dropCause = "dup"       // DroppedDup
	dropQueue    dropCause = "queue"     // DroppedQueue
	dropRadioOff dropCause = "radio-off" // DroppedRadioOff
	dropPark     dropCause = "park"      // ParkDrops
)

// drop discards p: it counts the cause in Stats and records a telemetry
// drop event, so every dropped packet leaves both.
func (r *Router) drop(p *stack.Packet, cause dropCause) {
	switch cause {
	case dropNoRoute:
		r.stats.DroppedNoRoute++
	case dropTTL:
		r.stats.DroppedTTL++
	case dropDup:
		r.stats.DroppedDup++
	case dropQueue:
		r.stats.DroppedQueue++
	case dropRadioOff:
		r.stats.DroppedRadioOff++
	case dropPark:
		r.stats.ParkDrops++
	}
	if r.tel.Recording() {
		r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "drop",
			telemetry.String("cause", string(cause)),
			telemetry.Node("origin", p.Origin),
			telemetry.Node("dst", p.Dst),
			telemetry.Int("port", int(r.port)))
	}
}

// Bounds on parked route-discovery packets (a 4 KB mote cannot buffer
// much).
const (
	pendingPerDst = 4
	pendingDsts   = 8
)

const dedupCacheSize = 128

// dedupKey packs a flood or packet identity, (origin, id), into one
// duplicate-filter key.
func dedupKey(origin phys.NodeID, id uint16) uint32 {
	return uint32(origin)<<16 | uint32(id)
}

func newRouter(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, port byte, cfg Config, strat strategy) (*Router, error) {
	r := &Router{
		eng:        eng,
		st:         st,
		table:      table,
		rng:        eng.Rand().Fork(fmt.Sprintf("router-%d-%d", st.NodeID(), port)),
		cfg:        cfg,
		port:       port,
		strat:      strat,
		seen:       sim.NewRecent[uint32, struct{}](dedupCacheSize),
		pending:    make(map[phys.NodeID][]parkedPkt),
		parkTimer:  make(map[phys.NodeID]*sim.Event),
		failStreak: make(map[phys.NodeID]int),
	}
	if err := st.Subscribe(port, r.onPacket); err != nil {
		return nil, err
	}
	return r, nil
}

// Port returns the stack port the protocol listens on.
func (r *Router) Port() byte { return r.port }

// Name returns the protocol's display name.
func (r *Router) Name() string { return r.strat.name() }

// NextHop answers "which neighbor would you relay a packet for dst to,
// right now?" — the generic query traceroute uses to walk a path hop by
// hop without knowing anything about the protocol's internals.
// Protocols without a unicast path (flooding) return ErrNoUnicastPath.
func (r *Router) NextHop(dst phys.NodeID) (phys.NodeID, error) {
	if dst == r.st.NodeID() {
		return 0, ErrSelfRoute
	}
	r.query = stack.Packet{Port: r.port, Origin: r.st.NodeID(), Dst: dst}
	next, err := r.strat.nextHop(&r.query)
	if err != nil {
		return 0, err
	}
	if next == phys.Broadcast {
		return 0, ErrNoUnicastPath
	}
	return next, nil
}

// Stats returns a snapshot of the routing counters.
func (r *Router) Stats() Stats { return r.stats }

// ResetStats zeroes the routing counters and the repair failure streaks
// (the shell's `stats reset` includes routers so chaos experiments
// start from a clean slate).
func (r *Router) ResetStats() {
	r.stats = Stats{}
	r.failStreak = make(map[phys.NodeID]int)
}

// Close unsubscribes the protocol from its port.
func (r *Router) Close() { r.st.Unsubscribe(r.port) }

// SendTo routes data to the application subscribed on innerPort at dst.
// When pad is true, every hop appends the incoming link's LQI/RSSI to
// the packet (link-quality padding). control marks the traffic as
// management traffic for overhead accounting.
func (r *Router) SendTo(dst phys.NodeID, innerPort byte, data []byte, pad, control bool) error {
	if innerPort == innerPortControl {
		return errors.New("routing: inner port 0 is reserved")
	}
	if routedHeaderLen+len(data) > stack.PayloadCeiling {
		return ErrDataLen
	}
	r.nextID++
	var flags byte
	if pad {
		flags |= stack.FlagPad
	}
	if control {
		flags |= stack.FlagControl
	}
	p := &stack.Packet{
		Port:   r.port,
		Origin: r.st.NodeID(),
		Dst:    dst,
		TTL:    r.cfg.DefaultTTL,
		Flags:  flags,
		Data:   encodeRouted(innerPort, r.nextID, data),
	}
	r.stats.Originated++
	if dst == r.st.NodeID() {
		return r.deliverLocal(p)
	}
	next, err := r.strat.nextHop(p)
	if errors.Is(err, ErrRouteDiscovery) {
		r.park(p)
		return nil
	}
	if err != nil {
		r.drop(p, dropNoRoute)
		return err
	}
	if r.tel.Recording() {
		r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "originate",
			telemetry.Node("dst", dst),
			telemetry.Node("next", next),
			telemetry.Int("port", int(r.port)),
			telemetry.Int("inner", int(innerPort)))
	}
	r.enqueue(p, next, control)
	return nil
}

// park holds a packet while its route is discovered; bounded like
// everything else on the mote, and stamped so it can expire: a parked
// packet whose destination never resolves must not sit forever.
func (r *Router) park(p *stack.Packet) {
	q := r.pending[p.Dst]
	if len(q) >= pendingPerDst || (q == nil && len(r.pending) >= pendingDsts) {
		r.drop(p, dropQueue)
		return
	}
	r.pending[p.Dst] = append(q, parkedPkt{pkt: p, at: r.eng.Now()})
	if r.parkTimer[p.Dst] == nil {
		r.armParkExpiry(p.Dst, r.cfg.ParkTTL)
	}
}

// armParkExpiry schedules the next expiry sweep for dst's park queue.
func (r *Router) armParkExpiry(dst phys.NodeID, delay sim.Time) {
	r.parkTimer[dst] = r.eng.Schedule(delay, func() { r.expireParked(dst) })
}

// expireParked drops parked packets older than ParkTTL — the table
// churned or discovery quietly resolved elsewhere and nothing will ever
// claim them — and re-arms the timer while newer entries remain.
func (r *Router) expireParked(dst phys.NodeID) {
	delete(r.parkTimer, dst)
	q := r.pending[dst]
	if len(q) == 0 {
		delete(r.pending, dst)
		return
	}
	now := r.eng.Now()
	cutoff := now - r.cfg.ParkTTL
	kept := q[:0]
	for _, pp := range q {
		if pp.at > cutoff {
			kept = append(kept, pp)
			continue
		}
		r.drop(pp.pkt, dropPark)
	}
	if len(kept) == 0 {
		delete(r.pending, dst)
		return
	}
	r.pending[dst] = kept
	r.armParkExpiry(dst, kept[0].at+r.cfg.ParkTTL-now)
}

// cancelParkExpiry stops the expiry timer for dst, if armed.
func (r *Router) cancelParkExpiry(dst phys.NodeID) {
	if ev := r.parkTimer[dst]; ev != nil {
		r.eng.Cancel(ev)
		delete(r.parkTimer, dst)
	}
}

// resolvePending re-routes packets parked for dst; strategies call it
// when discovery completes. A still-unresolvable packet is dropped.
func (r *Router) resolvePending(dst phys.NodeID) {
	q := r.pending[dst]
	if q == nil {
		return
	}
	delete(r.pending, dst)
	r.cancelParkExpiry(dst)
	for _, pp := range q {
		next, err := r.strat.nextHop(pp.pkt)
		if err != nil {
			r.drop(pp.pkt, dropNoRoute)
			continue
		}
		r.enqueue(pp.pkt, next, pp.pkt.Flags&stack.FlagControl != 0)
	}
}

// dropPending abandons parked packets for dst (discovery failed).
func (r *Router) dropPending(dst phys.NodeID) {
	for _, pp := range r.pending[dst] {
		r.drop(pp.pkt, dropNoRoute)
	}
	delete(r.pending, dst)
	r.cancelParkExpiry(dst)
}

// onPacket is the stack handler: it pads, delivers, or forwards.
func (r *Router) onPacket(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	innerPort, id, _, err := decodeRouted(p.Data)
	if err != nil {
		return
	}
	if innerPort == innerPortControl {
		r.strat.onControl(p, from, info)
		return
	}
	// Duplicate suppression (flooding re-broadcasts reach us many
	// times; unicast duplicates are possible under MAC retry schemes).
	key := dedupKey(p.Origin, id)
	if _, dup := r.seen.Get(key); dup {
		r.drop(p, dropDup)
		return
	}
	r.seen.Put(key)
	// Link-quality padding: the receiving hop records the incoming
	// link's quality. Exhausted padding stops recording but not
	// forwarding (the probe keeps travelling; it just can't take notes).
	if p.Flags&stack.FlagPad != 0 {
		if err := p.AppendPad(stack.LinkQuality{LQI: uint8(info.LQI), RSSI: int8(info.RSSI)}); err != nil {
			r.stats.PadExhausted++
		}
	}
	if p.Dst == r.st.NodeID() || p.Dst == phys.Broadcast {
		if err := r.deliverLocal(p); err == nil {
			r.stats.Delivered++
			if r.tel.Recording() {
				r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "deliver",
					telemetry.Node("origin", p.Origin),
					telemetry.Node("from", from),
					telemetry.Int("port", int(r.port)),
					telemetry.Int("inner", int(innerPort)))
			}
		}
		if p.Dst != phys.Broadcast {
			return
		}
	}
	if p.TTL == 0 {
		r.drop(p, dropTTL)
		return
	}
	p.TTL--
	next, err := r.strat.nextHop(p)
	if errors.Is(err, ErrRouteDiscovery) {
		// The dispatched packet is a borrow of the stack's scratch;
		// parking retains it past this callback, so clone.
		r.park(p.Clone())
		return
	}
	if err != nil {
		r.drop(p, dropNoRoute)
		return
	}
	r.stats.Forwarded++
	if r.tel.Recording() {
		r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "forward",
			telemetry.Node("origin", p.Origin),
			telemetry.Node("dst", p.Dst),
			telemetry.Node("next", next),
			telemetry.Int("ttl", int(p.TTL)),
			telemetry.Int("port", int(r.port)))
	}
	// Clone: the forward queue holds the packet past this callback, but
	// p borrows the stack's scratch (Handler contract).
	r.enqueue(p.Clone(), next, false)
}

// deliverLocal hands the inner packet to the local subscriber.
func (r *Router) deliverLocal(p *stack.Packet) error {
	innerPort, _, inner, err := decodeRouted(p.Data)
	if err != nil {
		return err
	}
	q := &stack.Packet{
		Port:   innerPort,
		Origin: p.Origin,
		Dst:    r.st.NodeID(),
		TTL:    p.TTL,
		Flags:  p.Flags,
		Data:   append([]byte(nil), inner...),
		Pad:    append([]stack.LinkQuality(nil), p.Pad...),
	}
	return r.st.SendLocal(q)
}

// enqueue adds a packet to the routing-layer queue and kicks the sender.
func (r *Router) enqueue(p *stack.Packet, next phys.NodeID, ctl bool) {
	if len(r.queue) >= queueCap {
		r.drop(p, dropQueue)
		return
	}
	r.queue = append(r.queue, queued{pkt: p, next: next, ctl: ctl})
	r.kick()
}

// kick services the queue head after the processing delay, adding
// random jitter while the MAC below is busy.
func (r *Router) kick() {
	if r.sending || len(r.queue) == 0 {
		return
	}
	r.sending = true
	delay := processingDelay + r.rng.Jitter(baseJitterMax)
	if r.st.MAC().QueueLen() > 0 {
		delay += r.rng.Jitter(busyJitterMax)
	}
	r.eng.After(delay, func() {
		if len(r.queue) == 0 {
			r.sending = false
			return
		}
		item := r.queue[0]
		r.queue = r.queue[1:]
		ftype := mac.TypeData
		if item.ctl || item.pkt.Flags&stack.FlagControl != 0 {
			ftype = mac.TypeControl
		}
		err := r.st.Send(item.pkt, item.next, ftype, func(_ mac.Frame, sendErr error) {
			if lo, ok := r.strat.(linkObserver); ok {
				lo.onSendResult(item.next, sendErr)
			}
			r.noteSendOutcome(item, sendErr)
			r.sending = false
			r.kick()
		})
		if err != nil {
			// Radio off, MAC queue full or frame invalid: drop and
			// continue.
			cause := dropQueue
			if errors.Is(err, mac.ErrRadioOff) {
				cause = dropRadioOff
			}
			r.drop(item.pkt, cause)
			r.sending = false
			r.kick()
		}
	})
}

// noteSendOutcome drives link repair from per-frame delivery feedback.
// An acked frame clears the next hop's failure streak; a no-ack extends
// it. When the streak reaches neighbor.SuspectAfter the link is condemned
// (marked suspect in the neighbor table, queued traffic rerouted) and
// the failed packet is salvaged through an alternate next hop. Channel
// access failures are local congestion, not link evidence, and leave
// the streak untouched.
func (r *Router) noteSendOutcome(item queued, sendErr error) {
	if sendErr == nil {
		delete(r.failStreak, item.next)
		return
	}
	if !errors.Is(sendErr, mac.ErrNoAck) {
		return
	}
	r.failStreak[item.next]++
	streak := r.failStreak[item.next]
	if streak < neighbor.SuspectAfter {
		return
	}
	if streak == neighbor.SuspectAfter {
		r.repairLink(item.next, streak)
	}
	r.salvage(item)
}

// repairLink marks next suspect and reroutes every queued packet that
// was headed through it.
func (r *Router) repairLink(next phys.NodeID, streak int) {
	r.stats.LinkRepairs++
	if r.table != nil {
		_ = r.table.MarkSuspect(next, true) // absent entries cannot be marked
	}
	if r.tel.Recording() {
		r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "link-suspect",
			telemetry.Node("next", next),
			telemetry.Int("streak", streak),
			telemetry.Int("port", int(r.port)))
	}
	r.rerouteQueued(next)
}

// rerouteQueued re-asks the strategy for every queued packet whose next
// hop is bad; packets with a different answer are repointed, packets
// whose route moved into discovery are parked, unroutable ones dropped.
func (r *Router) rerouteQueued(bad phys.NodeID) {
	kept := r.queue[:0]
	for _, item := range r.queue {
		if item.next != bad {
			kept = append(kept, item)
			continue
		}
		next, err := r.strat.nextHop(item.pkt)
		if errors.Is(err, ErrRouteDiscovery) {
			r.park(item.pkt)
			continue
		}
		if err != nil {
			r.drop(item.pkt, dropNoRoute)
			continue
		}
		if next != bad && r.tel.Recording() {
			r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "route-repair",
				telemetry.Node("dst", item.pkt.Dst),
				telemetry.Node("old", bad),
				telemetry.Node("next", next),
				telemetry.Int("port", int(r.port)))
		}
		item.next = next
		kept = append(kept, item)
	}
	r.queue = kept
}

// salvage gives a frame the MAC abandoned one more life through an
// alternate next hop. TTL is spent so a pair of bad links cannot bounce
// a packet forever; a salvage that would re-pick the same dead hop is a
// genuine dead end and the packet drops as unroutable.
func (r *Router) salvage(item queued) {
	p := item.pkt
	if p.TTL == 0 {
		r.drop(p, dropTTL)
		return
	}
	p.TTL--
	next, err := r.strat.nextHop(p)
	if errors.Is(err, ErrRouteDiscovery) {
		r.park(p)
		return
	}
	if err != nil || next == item.next {
		r.drop(p, dropNoRoute)
		return
	}
	r.stats.Salvaged++
	if r.tel.Recording() {
		r.tel.Emit(r.st.NodeID(), telemetry.LayerRouting, "route-repair",
			telemetry.Node("dst", p.Dst),
			telemetry.Node("old", item.next),
			telemetry.Node("next", next),
			telemetry.Int("port", int(r.port)))
	}
	r.enqueue(p, next, item.ctl)
}

// sendControl transmits a protocol-internal packet (tree adverts).
func (r *Router) sendControl(dst phys.NodeID, data []byte) {
	r.nextID++
	p := &stack.Packet{
		Port:   r.port,
		Origin: r.st.NodeID(),
		Dst:    dst,
		TTL:    1,
		Data:   encodeRouted(innerPortControl, r.nextID, data),
	}
	r.enqueue(p, dst, true)
}
