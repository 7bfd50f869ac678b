package routing

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// OnDemandPort hosts the on-demand (AODV-style) protocol.
const OnDemandPort byte = 13

// On-demand protocol parameters.
const (
	// RouteLifetime is how long an unused route entry stays valid.
	RouteLifetime = 60 * time.Second
	// DiscoveryTimeout bounds one route request round.
	DiscoveryTimeout = 2 * time.Second
	// MaxDiscoveryRetries bounds request rounds before the parked
	// packets are dropped.
	MaxDiscoveryRetries = 2
	// rreqTTL bounds request flooding.
	rreqTTL = 16
)

// On-demand control message kinds (inside innerPortControl data).
const (
	odKindRREQ byte = 1
	odKindRREP byte = 2
)

// routeEntry is one row of the on-demand routing table.
type routeEntry struct {
	next    phys.NodeID
	hops    int
	expires sim.Time
}

// discovery tracks one outstanding route request at the originator.
type discovery struct {
	reqID   uint16
	retries int
	timer   *sim.Event
}

// onDemand is a compact AODV-style protocol: no route state exists
// until traffic needs it. A route request floods toward the target,
// leaving reverse routes behind; the target answers with a route reply
// that walks the reverse path home, installing forward routes. Data
// packets park at the router while discovery runs. Link-layer delivery
// failures invalidate the routes that used the dead link, triggering
// rediscovery on the next packet — the repair loop the paper's users
// would watch with LiteView's stats and traceroute.
//
// Simplifications versus RFC 3561: no sequence numbers (the simulation
// has no stale-route problem at these time scales), no intermediate
// route replies, no RERR broadcast (failure handling is local
// invalidation).
type onDemand struct {
	r      *Router
	eng    *sim.Engine
	self   phys.NodeID
	table  *neighbor.Table
	rng    *sim.Rand
	routes map[phys.NodeID]*routeEntry
	disc   map[phys.NodeID]*discovery
	// seenReq dedups request floods by (origin, reqID).
	seenReq  map[uint32]struct{}
	seenReqQ []uint32
	nextReq  uint16
	minLQI   float64
}

// NewOnDemand attaches the on-demand protocol to st on OnDemandPort.
func NewOnDemand(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, cfg Config) (*Router, error) {
	return NewOnDemandOnPort(eng, st, table, OnDemandPort, cfg)
}

// NewOnDemandOnPort is NewOnDemand on an explicit port.
func NewOnDemandOnPort(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, port byte, cfg Config) (*Router, error) {
	if cfg.QueueCap <= 0 {
		cfg = DefaultConfig()
	}
	od := &onDemand{
		eng:     eng,
		self:    st.NodeID(),
		table:   table,
		rng:     eng.Rand().Fork(fmt.Sprintf("ondemand-%d", st.NodeID())),
		routes:  make(map[phys.NodeID]*routeEntry),
		disc:    make(map[phys.NodeID]*discovery),
		seenReq: make(map[uint32]struct{}),
		minLQI:  cfg.MinLQI,
	}
	r, err := newRouter(eng, st, table, port, cfg, od)
	if err != nil {
		return nil, err
	}
	od.r = r
	return r, nil
}

func (od *onDemand) name() string { return "on-demand (AODV-style)" }

// route returns a live route for dst, pruning expiry lazily.
func (od *onDemand) route(dst phys.NodeID) (*routeEntry, bool) {
	e, ok := od.routes[dst]
	if !ok {
		return nil, false
	}
	if od.eng.Now() > e.expires {
		delete(od.routes, dst)
		return nil, false
	}
	return e, true
}

func (od *onDemand) nextHop(p *stack.Packet) (phys.NodeID, error) {
	if e, ok := od.route(p.Dst); ok {
		e.expires = od.eng.Now() + RouteLifetime // refresh on use
		return e.next, nil
	}
	// No route: start (or join) a discovery.
	if _, running := od.disc[p.Dst]; !running {
		od.startDiscovery(p.Dst, 0)
	}
	return 0, ErrRouteDiscovery
}

// startDiscovery floods a route request for dst.
func (od *onDemand) startDiscovery(dst phys.NodeID, retries int) {
	od.nextReq++
	d := &discovery{reqID: od.nextReq, retries: retries}
	od.disc[dst] = d
	var w [8]byte
	w[0] = odKindRREQ
	binary.BigEndian.PutUint16(w[1:3], d.reqID)
	binary.BigEndian.PutUint16(w[3:5], uint16(od.self)) // requester
	binary.BigEndian.PutUint16(w[5:7], uint16(dst))     // target
	w[7] = 0                                            // hop count
	od.rememberReq(od.self, d.reqID)
	od.r.sendControl(phys.Broadcast, w[:])
	d.timer = od.eng.Schedule(DiscoveryTimeout, func() { od.discoveryTimeout(dst) })
}

func (od *onDemand) discoveryTimeout(dst phys.NodeID) {
	d, ok := od.disc[dst]
	if !ok {
		return
	}
	if _, have := od.route(dst); have {
		delete(od.disc, dst)
		return
	}
	if d.retries < MaxDiscoveryRetries {
		od.startDiscovery(dst, d.retries+1)
		return
	}
	delete(od.disc, dst)
	od.r.dropPending(dst)
}

func (od *onDemand) rememberReq(origin phys.NodeID, reqID uint16) bool {
	key := uint32(origin)<<16 | uint32(reqID)
	if _, dup := od.seenReq[key]; dup {
		return false
	}
	if len(od.seenReqQ) >= dedupCacheSize {
		old := od.seenReqQ[0]
		od.seenReqQ = od.seenReqQ[1:]
		delete(od.seenReq, old)
	}
	od.seenReq[key] = struct{}{}
	od.seenReqQ = append(od.seenReqQ, key)
	return true
}

// usableNeighbor gates learning on link quality like the other
// protocols: reverse routes over junk links black-hole replies, and a
// link the delivery estimator has condemned must not seed new routes.
func (od *onDemand) usableNeighbor(id phys.NodeID) bool {
	e, ok := od.table.Get(id)
	if !ok || e.Blacklisted || e.Suspect {
		return false
	}
	return od.minLQI <= 0 || e.LQI >= od.minLQI
}

// install adds/refreshes a route when the new one is at least as good.
func (od *onDemand) install(dst, next phys.NodeID, hops int) {
	if dst == od.self {
		return
	}
	if e, ok := od.route(dst); ok && e.hops < hops {
		return
	}
	od.routes[dst] = &routeEntry{next: next, hops: hops, expires: od.eng.Now() + RouteLifetime}
}

func (od *onDemand) onControl(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	_, _, inner, err := decodeRouted(p.Data)
	if err != nil || len(inner) != 8 {
		return
	}
	reqID := binary.BigEndian.Uint16(inner[1:3])
	requester := phys.NodeID(binary.BigEndian.Uint16(inner[3:5]))
	target := phys.NodeID(binary.BigEndian.Uint16(inner[5:7]))
	hops := int(inner[7])
	if !od.usableNeighbor(from) {
		return
	}
	switch inner[0] {
	case odKindRREQ:
		if requester == od.self {
			return // our own flood echoed back
		}
		if !od.rememberReq(requester, reqID) {
			return // duplicate flood copy
		}
		// The reverse route toward the requester came in through from.
		od.install(requester, from, hops+1)
		if target == od.self {
			// Answer with a route reply walking the reverse path.
			var w [8]byte
			w[0] = odKindRREP
			binary.BigEndian.PutUint16(w[1:3], reqID)
			binary.BigEndian.PutUint16(w[3:5], uint16(requester))
			binary.BigEndian.PutUint16(w[5:7], uint16(target))
			w[7] = 0
			od.r.sendControl(from, w[:])
			return
		}
		if hops+1 >= rreqTTL {
			return
		}
		// Re-flood with the hop count bumped.
		out := make([]byte, 8)
		copy(out, inner)
		out[7] = byte(hops + 1)
		od.r.sendControl(phys.Broadcast, out)
	case odKindRREP:
		// The forward route toward the target came in through from.
		od.install(target, from, hops+1)
		if requester == od.self {
			if d, ok := od.disc[target]; ok {
				if d.timer != nil {
					od.eng.Cancel(d.timer)
				}
				delete(od.disc, target)
			}
			od.r.resolvePending(target)
			return
		}
		// Walk on toward the requester along the reverse route.
		e, ok := od.route(requester)
		if !ok {
			return // reverse route expired; the requester will retry
		}
		out := make([]byte, 8)
		copy(out, inner)
		out[7] = byte(hops + 1)
		od.r.sendControl(e.next, out)
	}
}

// onSendResult implements linkObserver: a frame the MAC could not
// deliver (no ack after retries) invalidates every route using that
// next hop. Destinations that still have traffic parked do not wait for
// the next packet — rediscovery starts immediately, so repair begins
// the moment the failure is known.
func (od *onDemand) onSendResult(next phys.NodeID, err error) {
	if err == nil {
		return
	}
	var invalidated []phys.NodeID
	for dst, e := range od.routes {
		if e.next == next {
			invalidated = append(invalidated, dst)
		}
	}
	// Deterministic order: rediscovery transmits, and map iteration
	// order must never reach the air.
	sort.Slice(invalidated, func(i, j int) bool { return invalidated[i] < invalidated[j] })
	for _, dst := range invalidated {
		delete(od.routes, dst)
		if len(od.r.pending[dst]) == 0 {
			continue
		}
		if _, running := od.disc[dst]; !running {
			od.startDiscovery(dst, 0)
		}
	}
}

// RouteTable reports the live routes of an on-demand router (for tests
// and diagnosis tooling). ok is false for other protocols.
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
