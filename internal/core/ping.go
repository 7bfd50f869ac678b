package core

import (
	"errors"
	"fmt"
	"time"

	"liteview/internal/liteos"
	"liteview/internal/mac"
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

// Ping probe header: kind + taskID + seq + origin + routerPort.
const pingProbeHeaderLen = 7

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
	if o.Length < pingProbeHeaderLen {
		o.Length = pingProbeHeaderLen
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

// buildProbe lays out a probe message padded with filler to the
// requested length.
func (pe *PingEngine) buildProbe(t *pingTask) []byte {
	var w writer
	w.u8(pingKindProbe)
	w.u16(t.id)
	w.u8(byte(t.seq))
	w.node(pe.os.ID())
	w.u8(t.opts.RouterPort)
	for len(w.b) < t.opts.Length {
		w.u8(0xA5)
	}
	return w.b
}

func (pe *PingEngine) sendProbe(t *pingTask) {
	probe := pe.buildProbe(t)
	// "The process first gets the current timestamp using a
	// high-resolution, cycle-accurate timer," then sends.
	t.sentAt = pe.eng.Now()
	var err error
	if t.opts.RouterPort == 0 {
		p := &stack.Packet{
			Port:   PingPort,
			Origin: pe.os.ID(),
			Dst:    t.opts.Dst,
			TTL:    1,
			Flags:  stack.FlagControl,
			Data:   probe,
		}
		err = pe.os.Stack().Send(p, t.opts.Dst, mac.TypeControl, nil)
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
	if len(p.Data) < 1 {
		return
	}
	switch p.Data[0] {
	case pingKindProbe:
		pe.onProbe(p, from, info)
	case pingKindReply:
		pe.onReply(p, from, info)
	}
}

// onProbe is the responder role: reply with the incoming link quality.
func (pe *PingEngine) onProbe(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	r := reader{b: p.Data}
	r.u8() // kind
	taskID := r.u16()
	seq := r.u8()
	origin := r.node()
	routerPort := r.u8()
	if r.fail() {
		return
	}
	var w writer
	w.u8(pingKindReply)
	w.u16(taskID)
	w.u8(seq)
	if routerPort != 0 {
		// Routed probe: the forward per-hop quality arrived in the
		// packet's padding; copy it into the reply body so the sender
		// sees it, then route the reply back through the same protocol
		// the probe named, with padding enabled for the return path.
		w.u8(1)
		w.u8(byte(pe.os.MAC().QueueLen()))
		w.u8(byte(len(p.Pad)))
		for _, lq := range p.Pad {
			w.u8(lq.LQI)
			w.i8(lq.RSSI)
		}
		rt, ok := pe.routers(routerPort)
		if !ok {
			pe.os.SysLogEvent("ping", "no protocol on port %d to reply via", routerPort)
			return
		}
		if err := rt.SendTo(origin, PingPort, w.b, true, true); err != nil {
			pe.os.SysLogEvent("ping", "reply route to %d failed: %v", origin, err)
		}
		return
	}
	w.u8(0)
	w.u8(byte(pe.os.MAC().QueueLen()))
	// Link quality of the incoming probe, available only after
	// reception at this side.
	w.u8(byte(info.LQI))
	w.i8(int8(info.RSSI))
	reply := &stack.Packet{
		Port:   PingPort,
		Origin: pe.os.ID(),
		Dst:    from,
		TTL:    1,
		Flags:  stack.FlagControl,
		Data:   w.b,
	}
	if err := pe.os.Stack().Send(reply, from, mac.TypeControl, nil); err != nil {
		pe.os.SysLogEvent("ping", "reply send failed: %v", err)
	}
}

// onReply is the sender role: close the round and record the result.
func (pe *PingEngine) onReply(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	r := reader{b: p.Data}
	r.u8() // kind
	taskID := r.u16()
	seq := int(r.u8())
	multihop := r.u8() != 0
	remoteQueue := r.u8()
	t, ok := pe.tasks[taskID]
	if !ok || seq != t.seq || r.fail() {
		return
	}
	if t.timer != nil {
		pe.eng.Cancel(t.timer)
	}
	rtt := pe.eng.Now() - t.sentAt
	res := PingResult{
		Seq:     seq,
		RTT:     uint32(rtt / time.Microsecond),
		QFwd:    remoteQueue,
		QBwd:    uint8(pe.os.MAC().QueueLen()),
		Power:   uint8(pe.os.Radio().PowerLevel()),
		Channel: uint8(pe.os.Radio().Channel()),
	}
	if multihop {
		nFwd := int(r.u8())
		for i := 0; i < nFwd; i++ {
			res.HopQuality = append(res.HopQuality, HopLQ{LQI: r.u8(), RSSI: r.i8()})
		}
		// Return-path records arrive as the reply packet's padding.
		for _, lq := range p.Pad {
			res.HopQuality = append(res.HopQuality, HopLQ{LQI: lq.LQI, RSSI: lq.RSSI, Back: true})
		}
		// Headline LQI/RSSI: first forward hop / first return hop.
		if nFwd > 0 {
			res.LQIFwd = res.HopQuality[0].LQI
			res.RSSIFwd = res.HopQuality[0].RSSI
		}
		if len(p.Pad) > 0 {
			res.LQIBwd = p.Pad[0].LQI
			res.RSSIBwd = p.Pad[0].RSSI
		}
	} else {
		res.LQIFwd = r.u8()
		res.RSSIFwd = r.i8()
		// The reply's own link quality is the backward direction,
		// observed by this node's radio on reception.
		res.LQIBwd = uint8(info.LQI)
		res.RSSIBwd = int8(info.RSSI)
	}
	if r.fail() {
		return
	}
	_ = from
	t.results = append(t.results, res)
	pe.os.SysLogEvent("ping", "round %d: rtt=%v", seq+1, rtt)
	pe.nextRound(t)
}
