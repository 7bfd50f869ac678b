package core

import (
	"errors"
	"fmt"
	"time"

	"liteview/internal/liteos"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// The ping command. It runs as an individual process on both the
// sending and receiving node, subscribed to its own communication port
// (PingPort). The sender timestamps a probe with the node's
// high-resolution timer, the receiver replies with the link quality
// (LQI, RSSI) of the incoming probe plus its queue occupancy, and the
// sender computes the RTT from its own clock — no network-level time
// synchronisation is needed.
//
// A single-hop ping exchanges probe and reply directly. A multi-hop
// ping hands the probe to the routing protocol listening on the port
// the user named; the probe collects per-hop link quality through
// link-quality padding on the way out, the reply carries those records
// in its body and collects the return path's records the same way.

// Ping message kinds on PingPort.
const (
	pingKindProbe byte = 1
	pingKindReply byte = 2
)

// pingProbe asks the responder for the link quality of its arrival. It
// is padded with filler to the requested probe length.
type pingProbe struct {
	taskID     uint16
	seq        byte
	origin     phys.NodeID
	routerPort byte
	length     int
}

func (m *pingProbe) fields(c *codec) {
	c.tag(pingKindProbe)
	c.u16(&m.taskID)
	c.u8(&m.seq)
	c.node(&m.origin)
	c.u8(&m.routerPort)
	c.fill(&m.length, 0xA5)
}

// pingProbeLen is the size of a probe without filler.
var pingProbeLen = wireLen(&pingProbe{})

// pingReply answers a probe with the responder's queue length and,
// single-hop, the probe's link quality at the responder, or, multi-hop,
// the forward path's padding records (the return path's records arrive
// as the reply's own padding).
type pingReply struct {
	taskID   uint16
	seq      byte
	multihop bool
	queue    byte
	lqi      byte
	rssi     int8
	fwd      []HopLQ
}

func (m *pingReply) fields(c *codec) {
	c.tag(pingKindReply)
	c.u16(&m.taskID)
	c.u8(&m.seq)
	c.flag(&m.multihop)
	c.u8(&m.queue)
	if m.multihop {
		c.hops(&m.fwd, 255, false)
	} else {
		c.u8(&m.lqi)
		c.i8(&m.rssi)
	}
}

// PingOptions parameterises one ping command invocation.
type PingOptions struct {
	// Dst is the probed node.
	Dst phys.NodeID
	// Rounds is the number of probe/reply exchanges (default 1).
	Rounds int
	// Length is the probe payload size in bytes (default 32).
	Length int
	// RouterPort selects the routing protocol for multi-hop pings;
	// zero means a direct single-hop probe.
	RouterPort byte
	// Timeout bounds one round's wait for a reply (default 250 ms).
	Timeout sim.Time
}

func (o *PingOptions) normalize() error {
	if o.Rounds <= 0 {
		o.Rounds = 1
	}
	if o.Rounds > 200 {
		return errors.New("core: ping rounds > 200")
	}
	if o.Length <= 0 {
		o.Length = 32
	}
	if o.Length < pingProbeLen {
		o.Length = pingProbeLen
	}
	// Multi-hop probes must leave room for the routed header and the
	// padding region is shared with the data, so cap the length.
	if o.Length > 48 {
		return fmt.Errorf("core: ping length %d exceeds 48-byte probe limit", o.Length)
	}
	if o.Timeout <= 0 {
		o.Timeout = 250 * time.Millisecond
	}
	return nil
}

// RouterLookup resolves the routing protocol listening on a port; the
// runtime supplies it so commands select protocols at runtime without
// compile-time coupling.
type RouterLookup func(port byte) (*routing.Router, bool)

type pingTask struct {
	id      uint16
	opts    PingOptions
	seq     int
	sentAt  sim.Time
	timer   *sim.Event
	results []PingResult
	onDone  func([]PingResult)
}

// PingEngine is the per-node ping process logic (sender and responder
// roles share the subscription).
type PingEngine struct {
	eng     *sim.Engine
	os      *liteos.Node
	routers RouterLookup
	nextID  uint16
	tasks   map[uint16]*pingTask
}

// NewPingEngine subscribes the ping process on PingPort.
func NewPingEngine(eng *sim.Engine, os *liteos.Node, routers RouterLookup) (*PingEngine, error) {
	pe := &PingEngine{eng: eng, os: os, routers: routers, tasks: make(map[uint16]*pingTask)}
	if err := os.Stack().Subscribe(PingPort, pe.onPacket); err != nil {
		return nil, err
	}
	return pe, nil
}

// Reset abandons every in-flight ping task without callbacks — the
// node crashed and its task state is gone. nextID survives so
// post-reboot tasks do not alias dead ones.
func (pe *PingEngine) Reset() {
	for id, t := range pe.tasks {
		if t.timer != nil {
			pe.eng.Cancel(t.timer)
		}
		delete(pe.tasks, id)
	}
}

// Start launches a ping task. onDone receives one PingResult per round
// once all rounds complete (lost rounds report Lost=true).
func (pe *PingEngine) Start(opts PingOptions, onDone func([]PingResult)) error {
	if err := opts.normalize(); err != nil {
		return err
	}
	if opts.Dst == pe.os.ID() {
		return errors.New("core: ping to self")
	}
	if opts.RouterPort != 0 {
		if _, ok := pe.routers(opts.RouterPort); !ok {
			return fmt.Errorf("core: no routing protocol on port %d", opts.RouterPort)
		}
	}
	pe.nextID++
	t := &pingTask{id: pe.nextID, opts: opts, onDone: onDone}
	pe.tasks[t.id] = t
	pe.sendProbe(t)
	return nil
}

func (pe *PingEngine) sendProbe(t *pingTask) {
	probe, _ := Encode(&pingProbe{taskID: t.id, seq: byte(t.seq), origin: pe.os.ID(),
		routerPort: t.opts.RouterPort, length: t.opts.Length}) // fixed-width fields only: cannot fail
	// "The process first gets the current timestamp using a
	// high-resolution, cycle-accurate timer," then sends.
	t.sentAt = pe.eng.Now()
	var err error
	if t.opts.RouterPort == 0 {
		err = sendOneHop(pe.os.Stack(), PingPort, t.opts.Dst, probe)
	} else {
		r, ok := pe.routers(t.opts.RouterPort)
		if !ok {
			err = fmt.Errorf("core: routing protocol on port %d vanished", t.opts.RouterPort)
		} else {
			err = r.SendTo(t.opts.Dst, PingPort, probe, true, true)
		}
	}
	if err != nil {
		pe.os.SysLogEvent("ping", "probe %d/%d failed to send: %v", t.seq+1, t.opts.Rounds, err)
		pe.roundLost(t)
		return
	}
	pe.os.SysLogEvent("ping", "probe %d/%d to %d sent", t.seq+1, t.opts.Rounds, t.opts.Dst)
	t.timer = pe.eng.Schedule(t.opts.Timeout, func() { pe.roundLost(t) })
}

// roundLost records a timed-out round and moves on.
func (pe *PingEngine) roundLost(t *pingTask) {
	if _, live := pe.tasks[t.id]; !live {
		return
	}
	t.results = append(t.results, PingResult{Seq: t.seq, Lost: true,
		Power: uint8(pe.os.Radio().PowerLevel()), Channel: uint8(pe.os.Radio().Channel())})
	pe.nextRound(t)
}

func (pe *PingEngine) nextRound(t *pingTask) {
	t.seq++
	if t.seq >= t.opts.Rounds {
		delete(pe.tasks, t.id)
		if t.onDone != nil {
			t.onDone(t.results)
		}
		return
	}
	pe.sendProbe(t)
}

func (pe *PingEngine) onPacket(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	var probe pingProbe
	var reply pingReply
	switch {
	case decode(p.Data, &probe) == nil:
		pe.onProbe(&probe, p, from, info)
	case decode(p.Data, &reply) == nil:
		pe.onReply(&reply, p, info)
	}
}

// onProbe is the responder role: reply with the incoming link quality.
func (pe *PingEngine) onProbe(probe *pingProbe, p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	reply := pingReply{taskID: probe.taskID, seq: probe.seq, queue: byte(pe.os.MAC().QueueLen())}
	if probe.routerPort != 0 {
		// Routed probe: the forward per-hop quality arrived in the
		// packet's padding; copy it into the reply body so the sender
		// sees it, then route the reply back through the same protocol
		// the probe named, with padding enabled for the return path.
		reply.multihop = true
		for _, lq := range p.Pad {
			reply.fwd = append(reply.fwd, HopLQ{LQI: lq.LQI, RSSI: lq.RSSI})
		}
		rt, ok := pe.routers(probe.routerPort)
		if !ok {
			pe.os.SysLogEvent("ping", "no protocol on port %d to reply via", probe.routerPort)
			return
		}
		data, _ := Encode(&reply) // fixed-width fields only: cannot fail
		if err := rt.SendTo(probe.origin, PingPort, data, true, true); err != nil {
			pe.os.SysLogEvent("ping", "reply route to %d failed: %v", probe.origin, err)
		}
		return
	}
	// Link quality of the incoming probe, available only after
	// reception at this side.
	reply.lqi, reply.rssi = byte(info.LQI), int8(info.RSSI)
	data, _ := Encode(&reply) // fixed-width fields only: cannot fail
	if err := sendOneHop(pe.os.Stack(), PingPort, from, data); err != nil {
		pe.os.SysLogEvent("ping", "reply send failed: %v", err)
	}
}

// onReply is the sender role: close the round and record the result.
func (pe *PingEngine) onReply(reply *pingReply, p *stack.Packet, info medium.RxInfo) {
	t, ok := pe.tasks[reply.taskID]
	if !ok || int(reply.seq) != t.seq {
		return
	}
	if t.timer != nil {
		pe.eng.Cancel(t.timer)
	}
	rtt := pe.eng.Now() - t.sentAt
	res := PingResult{
		Seq:     t.seq,
		RTT:     uint32(rtt / time.Microsecond),
		QFwd:    reply.queue,
		QBwd:    uint8(pe.os.MAC().QueueLen()),
		Power:   uint8(pe.os.Radio().PowerLevel()),
		Channel: uint8(pe.os.Radio().Channel()),
	}
	if reply.multihop {
		res.HopQuality = reply.fwd
		// Return-path records arrive as the reply packet's padding.
		for _, lq := range p.Pad {
			res.HopQuality = append(res.HopQuality, HopLQ{LQI: lq.LQI, RSSI: lq.RSSI, Back: true})
		}
		// Headline LQI/RSSI: first forward hop / first return hop.
		if len(reply.fwd) > 0 {
			res.LQIFwd = reply.fwd[0].LQI
			res.RSSIFwd = reply.fwd[0].RSSI
		}
		if len(p.Pad) > 0 {
			res.LQIBwd = p.Pad[0].LQI
			res.RSSIBwd = p.Pad[0].RSSI
		}
	} else {
		res.LQIFwd = reply.lqi
		res.RSSIFwd = reply.rssi
		// The reply's own link quality is the backward direction,
		// observed by this node's radio on reception.
		res.LQIBwd = uint8(info.LQI)
		res.RSSIBwd = int8(info.RSSI)
	}
	t.results = append(t.results, res)
	pe.os.SysLogEvent("ping", "round %d: rtt=%v", t.seq+1, rtt)
	pe.nextRound(t)
}
