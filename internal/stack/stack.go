package stack

import (
	"errors"
	"fmt"
	"slices"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Handler receives packets addressed to a subscribed port. from is the
// one-hop transmitter (the MAC source); info carries that hop's radio
// metadata. The packet is a BORROW: p, its Data (which aliases a pooled
// receive buffer), and its Pad are valid only for the duration of the
// call, and a handler that retains any of them must p.Clone() first.
// Localhost deliveries (SendLocal) pass an owned clone, but the
// contract is uniform so handlers need not distinguish the two paths.
type Handler func(p *Packet, from phys.NodeID, info medium.RxInfo)

// Sniffer observes every intact frame the node hears, regardless of
// destination — this is how the kernel's neighbor table learns about
// the neighborhood (Figure 2 routes received headers past the neighbor
// table).
type Sniffer func(src phys.NodeID, ftype mac.FrameType, info medium.RxInfo)

// Stats counts stack-level dispatch outcomes.
type Stats struct {
	// Delivered counts packets handed to a subscriber.
	Delivered uint64
	// NoSubscriber counts packets for ports nobody listens on.
	NoSubscriber uint64
	// FilteredDst counts frames overheard for other nodes.
	FilteredDst uint64
	// Malformed counts undecodable packets.
	Malformed uint64
	// LocalDelivered counts localhost deliveries.
	LocalDelivered uint64
}

// Stack is the per-node port-based communication layer. It is the only
// component that talks to the MAC; everything above it — routing
// protocols, the LiteView runtime controller, applications — interacts
// exclusively through ports.
type Stack struct {
	eng      *sim.Engine
	mac      *mac.MAC
	ports    []port
	sniffers []Sniffer
	stats    Stats
	// tel, when set, receives port-dispatch telemetry events.
	tel *telemetry.Recorder
	// rx is the dispatch scratch packet (handlers get a borrow of it);
	// txBuf is the reused Send encode buffer (the MAC copies at enqueue).
	rx    Packet
	txBuf []byte
}

// SetTelemetry points the stack at a telemetry recorder (nil detaches).
func (s *Stack) SetTelemetry(rec *telemetry.Recorder) { s.tel = rec }

// New wires a stack on top of m. Construct the MAC with the stack's
// OnFrame as its deliver callback (a two-phase hookup: create the Stack
// with a nil MAC placeholder is not allowed, so callers typically use a
// small closure — see node.Build in package liteos).
func New(eng *sim.Engine, m *mac.MAC) *Stack {
	s := &Stack{eng: eng, mac: m}
	return s
}

// port is one subscription. A node binds a handful of ports, so the
// per-frame lookup is a short scan rather than a hash.
type port struct {
	num byte
	h   Handler
}

// handler returns the handler subscribed on num, or nil.
func (s *Stack) handler(num byte) Handler {
	for i := range s.ports {
		if s.ports[i].num == num {
			return s.ports[i].h
		}
	}
	return nil
}

// OnFrame is the MAC deliver callback; pass it to mac.New.
func (s *Stack) OnFrame(f mac.Frame, info medium.RxInfo) {
	for _, sn := range s.sniffers {
		sn(f.Src, f.Type, info)
	}
	if f.Dst != s.mac.NodeID() && f.Dst != phys.Broadcast {
		s.stats.FilteredDst++
		return
	}
	p := &s.rx
	err := DecodePacketInto(p, f.Payload)
	if err != nil {
		s.stats.Malformed++
		if s.tel.Recording() {
			s.tel.Emit(s.mac.NodeID(), telemetry.LayerStack, "malformed",
				telemetry.Node("from", f.Src))
		}
		return
	}
	h := s.handler(p.Port)
	if h == nil {
		s.stats.NoSubscriber++
		if s.tel.Recording() {
			s.tel.Emit(s.mac.NodeID(), telemetry.LayerStack, "no-subscriber",
				telemetry.Node("from", f.Src),
				telemetry.Int("port", int(p.Port)))
		}
		return
	}
	s.stats.Delivered++
	if s.tel.Recording() {
		s.tel.Emit(s.mac.NodeID(), telemetry.LayerStack, "dispatch",
			telemetry.Node("from", f.Src),
			telemetry.Int("port", int(p.Port)))
	}
	h(p, f.Src, info)
}

// MAC exposes the underlying link layer (for queue occupancy and radio
// access by management commands).
func (s *Stack) MAC() *mac.MAC { return s.mac }

// NodeID returns the node's short address.
func (s *Stack) NodeID() phys.NodeID { return s.mac.NodeID() }

// Stats returns a snapshot of dispatch counters.
func (s *Stack) Stats() Stats { return s.stats }

// Subscribe registers h on port. Subscribing an occupied port is an
// error: the paper's design gives each process a unique port.
func (s *Stack) Subscribe(num byte, h Handler) error {
	if h == nil {
		return errors.New("stack: nil handler")
	}
	if s.handler(num) != nil {
		return fmt.Errorf("stack: port %d already subscribed", num)
	}
	s.ports = append(s.ports, port{num, h})
	return nil
}

// Unsubscribe frees a port. Unsubscribing a free port is a no-op,
// matching process exit semantics.
func (s *Stack) Unsubscribe(num byte) {
	s.ports = slices.DeleteFunc(s.ports, func(p port) bool { return p.num == num })
}

// AddSniffer registers an observer of all intact overheard frames.
func (s *Stack) AddSniffer(sn Sniffer) {
	if sn != nil {
		s.sniffers = append(s.sniffers, sn)
	}
}

// Send transmits p one hop to nextHop (phys.Broadcast for all
// neighbors). ftype classifies the frame for overhead accounting. sent
// may be nil.
func (s *Stack) Send(p *Packet, nextHop phys.NodeID, ftype mac.FrameType, sent mac.SentFunc) error {
	raw, err := p.AppendEncode(s.txBuf[:0])
	if err != nil {
		return err
	}
	s.txBuf = raw // the MAC copies into its queue slot; reuse next send
	return s.mac.Send(mac.Frame{Type: ftype, Dst: nextHop, Payload: raw}, sent)
}

// SendLocal delivers p to the local subscriber on its port without
// touching the radio — the "Localhost packet" path in Figure 2. The
// delivery is scheduled as a zero-delay event so handlers never recurse
// into each other.
func (s *Stack) SendLocal(p *Packet) error {
	h := s.handler(p.Port)
	if h == nil {
		s.stats.NoSubscriber++
		return fmt.Errorf("stack: no local subscriber on port %d", p.Port)
	}
	q := p.Clone()
	s.eng.After(0, func() {
		s.stats.LocalDelivered++
		if s.tel.Recording() {
			s.tel.Emit(s.mac.NodeID(), telemetry.LayerStack, "local",
				telemetry.Int("port", int(q.Port)))
		}
		h(q, s.mac.NodeID(), medium.RxInfo{From: s.mac.NodeID(), At: s.eng.Now()})
	})
	return nil
}
