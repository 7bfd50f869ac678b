package routing

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// DefaultAdvertPeriod is how often tree nodes re-advertise their cost.
const DefaultAdvertPeriod = 5 * time.Second

// tree is a collection-tree protocol in the MintRoute family: the root
// advertises cost 0; every node adopts the parent minimising
// (parent cost + link cost), where link cost is derived from the kernel
// neighbor table's LQI estimate; and periodically re-advertises its own
// cost. Data flows only toward the root, as in real collection
// protocols — LiteView's protocol independence means traceroute works
// over it anyway, as long as the probe target is the root.
type tree struct {
	r       *Router // back-pointer, set by NewTree after construction
	eng     *sim.Engine
	self    phys.NodeID
	table   *neighbor.Table
	root    phys.NodeID
	parent  phys.NodeID
	cost    float64
	hasPath bool
	period  sim.Time
	minLQI  float64
}

// NewTree attaches a collection tree rooted at root to st on TreePort.
// The returned router only accepts destinations equal to the root.
func NewTree(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, root phys.NodeID, cfg Config) (*Router, error) {
	return NewTreeOnPort(eng, st, table, root, TreePort, cfg)
}

// NewTreeOnPort is NewTree on an explicit port.
func NewTreeOnPort(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, root phys.NodeID, port byte, cfg Config) (*Router, error) {
	tr := &tree{
		eng:    eng,
		self:   st.NodeID(),
		table:  table,
		root:   root,
		period: DefaultAdvertPeriod,
		minLQI: cfg.MinLQI,
	}
	if tr.self == root {
		tr.cost = 0
		tr.hasPath = true
	} else {
		tr.cost = math.Inf(1)
	}
	r, err := newRouter(eng, st, table, port, cfg, tr)
	if err != nil {
		return nil, err
	}
	tr.r = r
	// Periodic advertisement with a random phase so co-started nodes
	// do not advertise in lockstep.
	ticker, err := sim.NewTicker(eng, tr.period, tr.advertise)
	if err != nil {
		return nil, err
	}
	ticker.Start(eng.Rand().Fork(fmt.Sprintf("tree-%d", tr.self)).Jitter(tr.period))
	return r, nil
}

func (t *tree) name() string { return "collection tree" }

// Parent returns the current parent and whether a path to the root is
// known. Exposed for tests and diagnosis tooling via TreeState.
func (t *tree) state() (phys.NodeID, float64, bool) { return t.parent, t.cost, t.hasPath }

// TreeState reports the collection-tree state of a router created by
// NewTree: the current parent, path cost, and whether a route to the
// root exists. It returns ok=false for non-tree routers.
func TreeState(r *Router) (parent phys.NodeID, cost float64, hasPath, ok bool) {
	t, isTree := r.strat.(*tree)
	if !isTree {
		return 0, 0, false, false
	}
	parent, cost, hasPath = t.state()
	return parent, cost, hasPath, true
}

func (t *tree) nextHop(p *stack.Packet) (phys.NodeID, error) {
	if p.Dst != t.root {
		return 0, fmt.Errorf("%w (root %d, asked %d)", ErrNotForRoot, t.root, p.Dst)
	}
	if t.self == t.root {
		return 0, ErrSelfRoute
	}
	if !t.hasPath || t.table.IsBlacklisted(t.parent) {
		// Re-evaluate in case the parent was blacklisted after adoption.
		t.reselect()
		if !t.hasPath {
			return 0, fmt.Errorf("%w: no path to root %d", ErrNoRoute, t.root)
		}
	}
	return t.parent, nil
}

// advert payload: cost scaled by 256 as uint16.
func encodeAdvert(cost float64) []byte {
	v := cost * 256
	if v > math.MaxUint16 {
		v = math.MaxUint16
	}
	buf := make([]byte, 2)
	binary.BigEndian.PutUint16(buf, uint16(v))
	return buf
}

func decodeAdvert(data []byte) (float64, bool) {
	if len(data) != 2 {
		return 0, false
	}
	return float64(binary.BigEndian.Uint16(data)) / 256, true
}

// advertise broadcasts the node's current cost when it has one.
func (t *tree) advertise() {
	if !t.hasPath {
		return
	}
	t.r.sendControl(phys.Broadcast, encodeAdvert(t.cost))
}

// linkCost maps the neighbor table's LQI estimate to an additive cost:
// a perfect link costs 1 hop, a barely usable one ~3.
func linkCost(e neighbor.Entry) float64 {
	q := e.LQI
	if q < 50 {
		q = 50
	}
	if q > 110 {
		q = 110
	}
	return 1 + 2*(110-q)/60
}

// isSuspect reports whether the delivery estimator has condemned the
// link to id.
func (t *tree) isSuspect(id phys.NodeID) bool {
	e, ok := t.table.Get(id)
	return ok && e.Suspect
}

func (t *tree) onControl(p *stack.Packet, from phys.NodeID, info medium.RxInfo) {
	if t.self == t.root {
		return // the root never re-parents
	}
	// A parent the user has since blacklisted no longer anchors the
	// cost: drop it now so the next advertisement can re-parent us.
	if t.hasPath && t.table.IsBlacklisted(t.parent) {
		t.reselect()
	}
	_, _, inner, err := decodeRouted(p.Data)
	if err != nil {
		return
	}
	cost, ok := decodeAdvert(inner)
	if !ok {
		return
	}
	if t.table.IsBlacklisted(from) {
		return
	}
	e, known := t.table.Get(from)
	if !known {
		return
	}
	if t.minLQI > 0 && e.LQI < t.minLQI {
		return // marginal link; not a viable parent
	}
	candidate := cost + linkCost(e)
	// Adopt strictly better parents; refresh cost when the current
	// parent re-advertises. A parent the delivery estimator has marked
	// suspect is abandoned for *any* non-suspect advertiser, even a more
	// expensive one — unlike blacklisting we keep forwarding through a
	// suspect parent while nothing else advertises, so a recovered link
	// can still ack a frame and clear its flag.
	if from == t.parent && t.hasPath {
		t.cost = candidate
		return
	}
	parentSuspect := t.hasPath && t.isSuspect(t.parent)
	if !t.hasPath || candidate < t.cost || (parentSuspect && !e.Suspect) {
		t.parent = from
		t.cost = candidate
		t.hasPath = true
	}
}

// reselect drops the current parent and picks the best non-blacklisted
// neighbor heard so far. Without stored adverts we fall back to "wait
// for the next advertisement": the path is marked unknown.
func (t *tree) reselect() {
	t.hasPath = false
	t.cost = math.Inf(1)
}
