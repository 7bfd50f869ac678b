package routing

import (
	"errors"
	"fmt"

	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

// Locator resolves a node's physical position. On a real deployment the
// coordinates come from the deployment plan or GPS; here the testbed
// supplies them. Geographic forwarding needs the positions of the local
// node, its neighbors, and the destination.
type Locator func(phys.NodeID) (phys.Position, bool)

// geographic is greedy geographic forwarding: each hop relays to the
// usable (non-blacklisted) neighbor that makes the most progress toward
// the destination. A hop with no neighbor strictly closer than itself
// drops the packet (no face routing; the paper's testbed is a connected
// line/grid where greedy suffices).
type geographic struct {
	self    phys.NodeID
	table   *neighbor.Table
	locator Locator
	minLQI  float64
}

// NewGeographic attaches greedy geographic forwarding to st on
// GeographicPort, resolving positions through locator.
func NewGeographic(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, locator Locator, cfg Config) (*Router, error) {
	return NewGeographicOnPort(eng, st, table, locator, GeographicPort, cfg)
}

// NewGeographicOnPort is NewGeographic on an explicit port, which lets
// tests and deployments run several instances side by side.
func NewGeographicOnPort(eng *sim.Engine, st *stack.Stack, table *neighbor.Table, locator Locator, port byte, cfg Config) (*Router, error) {
	if locator == nil {
		return nil, errors.New("routing: geographic forwarding needs a locator")
	}
	g := &geographic{self: st.NodeID(), table: table, locator: locator, minLQI: cfg.MinLQI}
	return newRouter(eng, st, table, port, cfg, g)
}

func (g *geographic) name() string { return "geographic forwarding" }

func (g *geographic) nextHop(p *stack.Packet) (phys.NodeID, error) {
	dstPos, ok := g.locator(p.Dst)
	if !ok {
		return 0, fmt.Errorf("%w: unknown position for %d", ErrNoRoute, p.Dst)
	}
	selfPos, ok := g.locator(g.self)
	if !ok {
		return 0, fmt.Errorf("%w: unknown position for self", ErrNoRoute)
	}
	selfDist := selfPos.Distance(dstPos)
	// First choice: the most progress among non-suspect neighbors whose
	// smoothed LQI clears the gate. When interference has temporarily
	// dragged every estimate under the gate (link estimators are noisy
	// under load), fall back to the *highest-LQI* non-suspect neighbor
	// that still makes progress — forwarding on the least-suspect link
	// beats dropping the packet, and preferring quality in the fallback
	// avoids lunging at marginal long links. Neighbors condemned by the
	// delivery estimator (consecutive no-acks) rank last: they are used
	// only when nothing else makes progress, which also gives a
	// recovered link the occasional frame it needs to clear its flag.
	best := phys.NodeID(0)
	bestDist := selfDist
	found := false
	fallback := phys.NodeID(0)
	fallbackLQI := -1.0
	suspect := phys.NodeID(0)
	suspectDel := -1.0
	g.table.EachUsable(func(e *neighbor.Entry) {
		pos, ok := g.locator(e.ID)
		if !ok {
			return
		}
		d := pos.Distance(dstPos)
		if d >= selfDist {
			return // no progress
		}
		if e.Suspect {
			if e.Delivery > suspectDel {
				suspect, suspectDel = e.ID, e.Delivery
			}
			return
		}
		if g.minLQI <= 0 || e.LQI >= g.minLQI {
			if d < bestDist {
				best, bestDist, found = e.ID, d, true
			}
		} else if e.LQI > fallbackLQI {
			fallback, fallbackLQI = e.ID, e.LQI
		}
	})
	if found {
		return best, nil
	}
	if fallbackLQI >= 0 {
		return fallback, nil
	}
	if suspectDel >= 0 {
		return suspect, nil
	}
	return 0, fmt.Errorf("%w: no neighbor closer to %d than self", ErrNoRoute, p.Dst)
}

func (g *geographic) onControl(*stack.Packet, phys.NodeID, medium.RxInfo) {
	// Greedy geographic forwarding has no protocol-internal traffic.
}
