package routing

import (
	"encoding/binary"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/stack"
)

// Receive hands r a routed packet the way the stack does: origin's
// packet number id for dst, carrying inner for innerPort (0 is the
// protocol's control traffic), heard from the neighbor from.
func Receive(r *Router, origin, dst, from phys.NodeID, id uint16, innerPort byte, inner []byte) {
	p := &stack.Packet{Port: r.port, Origin: origin, Dst: dst, TTL: 8, Data: encodeRouted(innerPort, id, inner)}
	r.onPacket(p, from, medium.RxInfo{From: from})
}

// RREQ encodes an on-demand route request: requester's flood reqID
// looking for target, hops travelled so far.
func RREQ(reqID uint16, requester, target phys.NodeID, hops byte) []byte {
	w := make([]byte, 8)
	w[0] = odKindRREQ
	binary.BigEndian.PutUint16(w[1:3], reqID)
	binary.BigEndian.PutUint16(w[3:5], uint16(requester))
	binary.BigEndian.PutUint16(w[5:7], uint16(target))
	w[7] = hops
	return w
}

// RouteTable reports the live routes of an on-demand router without
// refreshing or discovering any (NextHop does both). ok is false for
// other protocols.
func RouteTable(r *Router) (map[phys.NodeID]phys.NodeID, bool) {
	od, is := r.strat.(*onDemand)
	if !is {
		return nil, false
	}
	out := make(map[phys.NodeID]phys.NodeID)
	for dst := range od.routes {
		if e, ok := od.route(dst); ok {
			out[dst] = e.next
		}
	}
	return out, true
}
