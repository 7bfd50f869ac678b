package core

import (
	"errors"
	"fmt"
	"time"

	"liteview/internal/liteos"
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
	if o.Length < trProbeLen {
		o.Length = trProbeLen
	}
	if o.Length > 48 {
		return fmt.Errorf("core: traceroute length %d exceeds 48-byte probe limit", o.Length)
	}
	if o.RouterPort == 0 {
		return errors.New("core: traceroute needs a routing protocol port")
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

// hopTimeout bounds one hop's probe/reply exchange, at the source, at
// every relay and in SessionBudget.
const hopTimeout = 250 * time.Millisecond

// SessionBudget is the total traceroute deadline implied by the
// options: every hop may burn (retries+1) timeouts plus continuation
// jitter, and two extra hop-slots of slack cover report routing. The
// workstation sizes its listen window from the same formula so a
// retried final hop cannot be cut off by the task deadline.
func (o TrOptions) SessionBudget() sim.Time {
	attempts := sim.Time(o.ProbeRetries + 1)
	perHop := attempts*hopTimeout + 32*time.Millisecond
	return sim.Time(o.MaxHops+2) * perHop
}

// trProbe asks the next hop for the link quality of its arrival and
// carries the walk's state on to it. It is padded with filler to the
// requested probe length.
type trProbe struct {
	taskID                uint16
	source, dst           phys.NodeID
	port                  byte
	hop, maxHops, retries byte
	length                int
}

func (m *trProbe) fields(c *codec) {
	c.tag(trKindProbe)
	c.u16(&m.taskID)
	c.node(&m.source)
	c.node(&m.dst)
	c.u8(&m.port)
	c.u8(&m.hop)
	c.u8(&m.maxHops)
	c.u8(&m.retries)
	c.fill(&m.length, 0x5A)
}

// trProbeLen is the size of a probe without filler.
var trProbeLen = wireLen(&trProbe{})

// trReply answers a probe with its link quality at the probed node.
type trReply struct {
	taskID uint16
	source phys.NodeID
	hop    byte
	lqi    byte
	rssi   int8
	queue  byte
	final  bool
}

func (m *trReply) fields(c *codec) {
	c.tag(trKindReply)
	c.u16(&m.taskID)
	c.node(&m.source)
	c.u8(&m.hop)
	c.u8(&m.lqi)
	c.i8(&m.rssi)
	c.u8(&m.queue)
	c.flag(&m.final)
}

// trReport carries one hop's report, routed back to the source.
type trReport struct {
	taskID uint16
	report TrHopReport
}

func (m *trReport) fields(c *codec) {
	c.tag(trKindReport)
	c.u16(&m.taskID)
	m.report.fields(c)
}

// trSegment is one in-flight hop probe initiated by this node.
type trSegment struct {
	taskID     uint16
	source     phys.NodeID
	port       byte
	hop        int
	maxRetries int
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
	seen     sim.Recent[uint64, struct{}] // probe dedup: segKey(source, taskID, hop)
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
		seen:     sim.NewRecent[uint64, struct{}](256),
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
	te.seen.Reset()
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
	te.initiate(id, te.os.ID(), opts.Dst, opts.RouterPort, 0, opts.MaxHops, opts.ProbeRetries, opts.Length)
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
func (te *TracerouteEngine) initiate(taskID uint16, source, dst phys.NodeID, port byte, hop, maxHops, retries, length int) {
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
		taskID: taskID, source: source, port: port,
		hop: hop, maxRetries: retries,
		next: next,
	}
	te.segments[segKey(source, taskID, hop)] = seg
	seg.probe, _ = Encode(&trProbe{taskID: taskID, source: source, dst: dst, port: port,
		hop: byte(hop), maxHops: byte(maxHops), retries: byte(retries), length: length}) // fixed-width fields only: cannot fail
	te.sendProbe(seg)
}

// sendProbe transmits (or retransmits) a segment's probe and arms its
// timeout. The RTT clock restarts on each attempt: the paper's RTT is
// the round trip of the exchange that succeeded.
func (te *TracerouteEngine) sendProbe(seg *trSegment) {
	seg.sentAt = te.eng.Now()
	if err := sendOneHop(te.os.Stack(), TraceroutePort, seg.next, seg.probe); err != nil {
		delete(te.segments, segKey(seg.source, seg.taskID, seg.hop))
		te.report(TrHopReport{Hop: seg.hop + 1, From: seg.next, Lost: true}, seg.taskID, seg.source, seg.port)
		return
	}
	seg.timer = te.eng.Schedule(hopTimeout, func() { te.segmentTimeout(seg) })
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
	data, err := Encode(&trReport{taskID: taskID, report: rep})
	if err != nil {
		te.os.SysLogEvent("traceroute", "report to %d: %v", source, err)
		return
	}
	rt, ok := te.routers(port)
	if !ok {
		return
	}
	if err := rt.SendTo(source, TraceroutePort, data, false, true); err != nil {
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
	var probe trProbe
	var reply trReply
	var report trReport
	switch {
	case decode(p.Data, &probe) == nil:
		te.onProbe(&probe, p, from, info)
	case decode(p.Data, &reply) == nil:
		te.onReply(&reply, from, info)
	case decode(p.Data, &report) == nil:
		// A routed report arriving at the source.
		te.deliverReport(report.taskID, report.report)
	}
}

// onProbe handles Figure 4 steps 4-5: reply with the previous link's
// quality, then initiate the next task if this node is not the
// destination.
func (te *TracerouteEngine) onProbe(probe *trProbe, p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	data, _ := Encode(&trReply{taskID: probe.taskID, source: probe.source, hop: probe.hop,
		lqi: byte(info.LQI), rssi: int8(info.RSSI), queue: byte(te.os.MAC().QueueLen()),
		final: te.os.ID() == probe.dst}) // fixed-width fields only: cannot fail
	if err := sendOneHop(te.os.Stack(), TraceroutePort, from, data); err != nil {
		te.os.SysLogEvent("traceroute", "reply send failed: %v", err)
	}
	// Initiate the next task exactly once even if the probe was
	// retransmitted.
	key := segKey(probe.source, probe.taskID, int(probe.hop))
	if _, dup := te.seen.Get(key); dup {
		return
	}
	te.seen.Put(key)
	if te.os.ID() != probe.dst {
		// Desynchronise the continuation: starting the next hop's probe
		// immediately would lock it in phase with the previous hop's
		// report transmission two hops away — a hidden-terminal
		// collision the CSMA cannot sense. A short random delay breaks
		// the phase lock.
		delay := 8*time.Millisecond + te.rng.Jitter(16*time.Millisecond)
		te.eng.After(delay, func() {
			// p is the stack's reused receive packet, so len(p.Data) here
			// is the length of the last packet this node received, which
			// need not be this probe (probe.length).
			te.initiate(probe.taskID, probe.source, probe.dst, probe.port, int(probe.hop)+1,
				int(probe.maxHops), int(probe.retries), len(p.Data))
		})
	}
}

// onReply handles Figure 4 steps 6-8 at the probing hop: compute the
// hop RTT and ship the report to the source.
func (te *TracerouteEngine) onReply(reply *trReply, from phys.NodeID, info medium.RxInfo) {
	hop := int(reply.hop)
	seg, ok := te.segments[segKey(reply.source, reply.taskID, hop)]
	if !ok || seg.next != from {
		return
	}
	delete(te.segments, segKey(reply.source, reply.taskID, hop))
	if seg.timer != nil {
		te.eng.Cancel(seg.timer)
	}
	rtt := te.eng.Now() - seg.sentAt
	rep := TrHopReport{
		Hop:     hop + 1,
		From:    from,
		RTT:     uint32(rtt / time.Microsecond),
		LQIFwd:  reply.lqi,
		LQIBwd:  uint8(info.LQI),
		RSSIFwd: reply.rssi,
		RSSIBwd: int8(info.RSSI),
		QFwd:    reply.queue,
		QBwd:    uint8(te.os.MAC().QueueLen()),
		Final:   reply.final,
	}
	te.report(rep, reply.taskID, seg.source, seg.port)
}
