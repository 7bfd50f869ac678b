package core

import (
	"errors"
	"fmt"
	"time"

	"liteview/internal/liteos"
	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// The traceroute command (paper Figure 4). It operates on a per-hop
// basis: each node along the path temporarily becomes a sender and
// initiates a traceroute task — it asks the routing protocol for the
// next hop toward the destination, probes that hop directly (one hop),
// measures the hop's RTT and link quality from the reply, puts them in
// a report packet routed back to the source, and the probed node, if it
// is not the destination, initiates the next task. Because each hop's
// quality travels in its own report rather than in in-packet padding,
// traceroute needs no padding space and is "fundamentally more
// scalable" than the multi-hop ping.

// Traceroute message kinds on TraceroutePort.
const (
	trKindProbe  byte = 1
	trKindReply  byte = 2
	trKindReport byte = 3
)

// TrOptions parameterises one traceroute invocation.
type TrOptions struct {
	// Dst is the destination node.
	Dst phys.NodeID
	// Length is the probe payload size in bytes (default 32).
	Length int
	// RouterPort names the routing protocol used both to discover each
	// next hop and to deliver reports back to the source.
	RouterPort byte
	// HopTimeout bounds one hop's probe/reply exchange (default 250 ms).
	HopTimeout sim.Time
	// MaxHops caps the walked path (default 24).
	MaxHops int
	// ProbeRetries is how many times each hop probe is retried before
	// the hop is reported lost. One retry (the default) recovers the
	// occasional collision — hidden terminals two hops apart cannot
	// carrier-sense each other. A negative value disables retries.
	ProbeRetries int
}

func (o *TrOptions) normalize() error {
	if o.Length <= 0 {
		o.Length = 32
	}
	if o.Length < trProbeHeaderLen {
		o.Length = trProbeHeaderLen
	}
	if o.Length > 48 {
		return fmt.Errorf("core: traceroute length %d exceeds 48-byte probe limit", o.Length)
	}
	if o.RouterPort == 0 {
		return errors.New("core: traceroute needs a routing protocol port")
	}
	if o.HopTimeout <= 0 {
		o.HopTimeout = 250 * time.Millisecond
	}
	if o.MaxHops <= 0 {
		o.MaxHops = 24
	}
	switch {
	case o.ProbeRetries == 0:
		o.ProbeRetries = 1
	case o.ProbeRetries < 0:
		o.ProbeRetries = 0
	case o.ProbeRetries > 9:
		return fmt.Errorf("core: traceroute probe retries %d exceeds limit 9", o.ProbeRetries)
	}
	return nil
}

// SessionBudget is the total traceroute deadline implied by the
// options: every hop may burn (retries+1) timeouts plus continuation
// jitter, and two extra hop-slots of slack cover report routing. The
// workstation sizes its listen window from the same formula so a
// retried final hop cannot be cut off by the task deadline.
func (o TrOptions) SessionBudget() sim.Time {
	attempts := sim.Time(o.ProbeRetries + 1)
	perHop := attempts*o.HopTimeout + 32*time.Millisecond
	return sim.Time(o.MaxHops+2) * perHop
}

// trProbeHeaderLen: kind + taskID + source + dst + routerPort + hop +
// maxHops + retries.
const trProbeHeaderLen = 11

// trSegment is one in-flight hop probe initiated by this node.
type trSegment struct {
	taskID     uint16
	source     phys.NodeID
	dst        phys.NodeID
	port       byte
	hop        int
	maxHops    int
	maxRetries int
	length     int
	timeout    sim.Time
	next       phys.NodeID
	sentAt     sim.Time
	timer      *sim.Event
	probe      []byte
	retries    int
}

// trSession is the source-side state of a traceroute this node started.
type trSession struct {
	opts     TrOptions
	onReport func(TrHopReport)
	onDone   func()
	done     bool
	deadline *sim.Event
}

// TracerouteEngine is the per-node traceroute process logic.
type TracerouteEngine struct {
	eng      *sim.Engine
	os       *liteos.Node
	routers  RouterLookup
	rng      *sim.Rand
	nextID   uint16
	segments map[uint64]*trSegment // keyed by (source, taskID, hop)
	sessions map[uint16]*trSession
	seen     map[uint64]struct{} // probe dedup: (source, taskID, hop)
	seenQ    []uint64
}

// NewTracerouteEngine subscribes the traceroute process on
// TraceroutePort.
func NewTracerouteEngine(eng *sim.Engine, os *liteos.Node, routers RouterLookup) (*TracerouteEngine, error) {
	te := &TracerouteEngine{
		eng:      eng,
		os:       os,
		routers:  routers,
		rng:      eng.Rand().Fork(fmt.Sprintf("traceroute-%d", os.ID())),
		segments: make(map[uint64]*trSegment),
		sessions: make(map[uint16]*trSession),
		seen:     make(map[uint64]struct{}),
	}
	if err := os.Stack().Subscribe(TraceroutePort, te.onPacket); err != nil {
		return nil, err
	}
	return te, nil
}

func segKey(source phys.NodeID, taskID uint16, hop int) uint64 {
	return uint64(source)<<32 | uint64(taskID)<<8 | uint64(hop&0xFF)
}

// Reset abandons every in-flight segment and session without callbacks
// — the node crashed and its traceroute state is gone. nextID survives
// so post-reboot tasks do not alias dead ones at other nodes.
func (te *TracerouteEngine) Reset() {
	for k, seg := range te.segments {
		if seg.timer != nil {
			te.eng.Cancel(seg.timer)
		}
		delete(te.segments, k)
	}
	for id, s := range te.sessions {
		s.done = true
		if s.deadline != nil {
			te.eng.Cancel(s.deadline)
		}
		delete(te.sessions, id)
	}
	te.seen = make(map[uint64]struct{})
	te.seenQ = nil
}

// Start launches a traceroute from this node. onReport is invoked for
// every hop report as it arrives back at the source; onDone fires when
// the destination's report arrives or the session deadline passes.
func (te *TracerouteEngine) Start(opts TrOptions, onReport func(TrHopReport), onDone func()) error {
	if err := opts.normalize(); err != nil {
		return err
	}
	if opts.Dst == te.os.ID() {
		return errors.New("core: traceroute to self")
	}
	rt, ok := te.routers(opts.RouterPort)
	if !ok {
		return fmt.Errorf("core: no routing protocol on port %d", opts.RouterPort)
	}
	if _, err := rt.NextHop(opts.Dst); err != nil {
		return err
	}
	te.nextID++
	id := te.nextID
	s := &trSession{opts: opts, onReport: onReport, onDone: onDone}
	te.sessions[id] = s
	// Session deadline: the per-hop budget accounts for probe retries.
	s.deadline = te.eng.Schedule(opts.SessionBudget(), func() { te.finishSession(id) })
	te.initiate(id, te.os.ID(), opts.Dst, opts.RouterPort, 0, opts.MaxHops, opts.ProbeRetries, opts.Length, opts.HopTimeout)
	return nil
}

func (te *TracerouteEngine) finishSession(id uint16) {
	s, ok := te.sessions[id]
	if !ok || s.done {
		return
	}
	s.done = true
	if s.deadline != nil {
		te.eng.Cancel(s.deadline)
	}
	delete(te.sessions, id)
	if s.onDone != nil {
		s.onDone()
	}
}

// initiate starts one traceroute task at this node: probe the next hop
// toward dst (Figure 4 steps 1-3).
func (te *TracerouteEngine) initiate(taskID uint16, source, dst phys.NodeID, port byte, hop, maxHops, retries, length int, timeout sim.Time) {
	if hop >= maxHops {
		te.os.SysLogEvent("traceroute", "task %d exceeded max hops", taskID)
		return
	}
	rt, ok := te.routers(port)
	if !ok {
		return
	}
	next, err := rt.NextHop(dst)
	if err != nil {
		te.os.SysLogEvent("traceroute", "no next hop toward %d: %v", dst, err)
		te.report(TrHopReport{Hop: hop + 1, From: 0, Lost: true}, taskID, source, port)
		return
	}
	seg := &trSegment{
		taskID: taskID, source: source, dst: dst, port: port,
		hop: hop, maxHops: maxHops, maxRetries: retries,
		length: length, timeout: timeout,
		next: next,
	}
	te.segments[segKey(source, taskID, hop)] = seg
	var w writer
	w.u8(trKindProbe)
	w.u16(taskID)
	w.node(source)
	w.node(dst)
	w.u8(port)
	w.u8(byte(hop))
	w.u8(byte(maxHops))
	w.u8(byte(retries))
	for len(w.b) < length {
		w.u8(0x5A)
	}
	seg.probe = w.b
	te.sendProbe(seg)
}

// sendProbe transmits (or retransmits) a segment's probe and arms its
// timeout. The RTT clock restarts on each attempt: the paper's RTT is
// the round trip of the exchange that succeeded.
func (te *TracerouteEngine) sendProbe(seg *trSegment) {
	seg.sentAt = te.eng.Now()
	p := &stack.Packet{
		Port:   TraceroutePort,
		Origin: te.os.ID(),
		Dst:    seg.next,
		TTL:    1,
		Flags:  stack.FlagControl,
		Data:   seg.probe,
	}
	if err := te.os.Stack().Send(p, seg.next, mac.TypeControl, nil); err != nil {
		delete(te.segments, segKey(seg.source, seg.taskID, seg.hop))
		te.report(TrHopReport{Hop: seg.hop + 1, From: seg.next, Lost: true}, seg.taskID, seg.source, seg.port)
		return
	}
	seg.timer = te.eng.Schedule(seg.timeout, func() { te.segmentTimeout(seg) })
}

func (te *TracerouteEngine) segmentTimeout(seg *trSegment) {
	if _, live := te.segments[segKey(seg.source, seg.taskID, seg.hop)]; !live {
		return
	}
	if seg.retries < seg.maxRetries {
		seg.retries++
		te.os.SysLogEvent("traceroute", "hop %d probe to %d timed out; retrying", seg.hop+1, seg.next)
		te.sendProbe(seg)
		return
	}
	delete(te.segments, segKey(seg.source, seg.taskID, seg.hop))
	te.os.SysLogEvent("traceroute", "hop %d probe to %d timed out", seg.hop+1, seg.next)
	te.report(TrHopReport{Hop: seg.hop + 1, From: seg.next, Lost: true}, seg.taskID, seg.source, seg.port)
}

// report sends a hop report back to the source (or delivers it locally
// when this node is the source).
func (te *TracerouteEngine) report(rep TrHopReport, taskID uint16, source phys.NodeID, port byte) {
	if source == te.os.ID() {
		te.deliverReport(taskID, rep)
		return
	}
	var w writer
	w.u8(trKindReport)
	w.u16(taskID)
	w.b = append(w.b, EncodeTrHopReport(rep)...)
	rt, ok := te.routers(port)
	if !ok {
		return
	}
	if err := rt.SendTo(source, TraceroutePort, w.b, false, true); err != nil {
		te.os.SysLogEvent("traceroute", "report to %d failed: %v", source, err)
	}
}

// deliverReport hands a report to the local session.
func (te *TracerouteEngine) deliverReport(taskID uint16, rep TrHopReport) {
	s, ok := te.sessions[taskID]
	if !ok || s.done {
		return
	}
	if s.onReport != nil {
		s.onReport(rep)
	}
	if rep.Final || rep.Lost {
		// The destination reported, or the path broke: session over.
		te.finishSession(taskID)
	}
}

func (te *TracerouteEngine) onPacket(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	if len(p.Data) < 1 {
		return
	}
	switch p.Data[0] {
	case trKindProbe:
		te.onProbe(p, from, info)
	case trKindReply:
		te.onReply(p, from, info)
	case trKindReport:
		te.onReportPacket(p)
	}
}

// onProbe handles Figure 4 steps 4-5: reply with the previous link's
// quality, then initiate the next task if this node is not the
// destination.
func (te *TracerouteEngine) onProbe(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	r := reader{b: p.Data}
	r.u8() // kind
	taskID := r.u16()
	source := r.node()
	dst := r.node()
	port := r.u8()
	hop := int(r.u8())
	maxHops := int(r.u8())
	retries := int(r.u8())
	if r.fail() {
		return
	}
	var w writer
	w.u8(trKindReply)
	w.u16(taskID)
	w.node(source)
	w.u8(byte(hop))
	w.u8(byte(info.LQI))
	w.i8(int8(info.RSSI))
	w.u8(byte(te.os.MAC().QueueLen()))
	if te.os.ID() == dst {
		w.u8(1) // final
	} else {
		w.u8(0)
	}
	reply := &stack.Packet{
		Port:   TraceroutePort,
		Origin: te.os.ID(),
		Dst:    from,
		TTL:    1,
		Flags:  stack.FlagControl,
		Data:   w.b,
	}
	if err := te.os.Stack().Send(reply, from, mac.TypeControl, nil); err != nil {
		te.os.SysLogEvent("traceroute", "reply send failed: %v", err)
	}
	// Initiate the next task exactly once even if the probe was
	// retransmitted.
	key := segKey(source, taskID, hop)
	if _, dup := te.seen[key]; dup {
		return
	}
	te.remember(key)
	if te.os.ID() != dst {
		// Desynchronise the continuation: starting the next hop's probe
		// immediately would lock it in phase with the previous hop's
		// report transmission two hops away — a hidden-terminal
		// collision the CSMA cannot sense. A short random delay breaks
		// the phase lock.
		delay := 8*time.Millisecond + te.rng.Jitter(16*time.Millisecond)
		te.eng.After(delay, func() {
			te.initiate(taskID, source, dst, port, hop+1, maxHops, retries, len(p.Data), te.defaultHopTimeout())
		})
	}
}

func (te *TracerouteEngine) defaultHopTimeout() sim.Time { return 250 * time.Millisecond }

func (te *TracerouteEngine) remember(key uint64) {
	if len(te.seenQ) >= 256 {
		old := te.seenQ[0]
		te.seenQ = te.seenQ[1:]
		delete(te.seen, old)
	}
	te.seen[key] = struct{}{}
	te.seenQ = append(te.seenQ, key)
}

// onReply handles Figure 4 steps 6-8 at the probing hop: compute the
// hop RTT and ship the report to the source.
func (te *TracerouteEngine) onReply(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	r := reader{b: p.Data}
	r.u8() // kind
	taskID := r.u16()
	source := r.node()
	hop := int(r.u8())
	lqiFwd := r.u8()
	rssiFwd := r.i8()
	remoteQueue := r.u8()
	final := r.u8() != 0
	if r.fail() {
		return
	}
	seg, ok := te.segments[segKey(source, taskID, hop)]
	if !ok || seg.next != from {
		return
	}
	delete(te.segments, segKey(source, taskID, hop))
	if seg.timer != nil {
		te.eng.Cancel(seg.timer)
	}
	rtt := te.eng.Now() - seg.sentAt
	rep := TrHopReport{
		Hop:     hop + 1,
		From:    from,
		RTT:     uint32(rtt / time.Microsecond),
		LQIFwd:  lqiFwd,
		LQIBwd:  uint8(info.LQI),
		RSSIFwd: rssiFwd,
		RSSIBwd: int8(info.RSSI),
		QFwd:    remoteQueue,
		QBwd:    uint8(te.os.MAC().QueueLen()),
		Final:   final,
	}
	te.report(rep, taskID, seg.source, seg.port)
}

// onReportPacket handles a routed report arriving at the source.
func (te *TracerouteEngine) onReportPacket(p *stack.Packet) {
	r := reader{b: p.Data}
	r.u8() // kind
	taskID := r.u16()
	if r.fail() {
		return
	}
	rep, err := DecodeReply(p.Data[3:])
	if err != nil || rep.Kind != KindTrHopReport {
		return
	}
	te.deliverReport(taskID, rep.TrHop)
}
