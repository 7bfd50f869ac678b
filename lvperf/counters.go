package main

import (
	"liteview/internal/core"
	"liteview/internal/medium"
	"liteview/internal/sim"
	"liteview/internal/testbed"
)

// counters is one tenant's layer counters at an instant, read through
// the public Stats accessors. Deltas between two snapshots are the work
// each layer did in between.
type counters struct {
	fired uint64
	now   sim.Time
	med   medium.Stats

	macSent, macSentData, macBeacons, macFrameRetries, macBackoffRetries uint64
	stackDelivered, stackOverheard                                       uint64
	routeForwarded, routeDropped                                         uint64

	rel core.ReliableStats
}

// snapshot reads tb's counters. It must run on the goroutine that owns
// the simulation, or after that goroutine has exited.
func snapshot(tb *testbed.Testbed, ws *core.Workstation) counters {
	c := counters{fired: tb.Eng.Fired(), now: tb.Eng.Now(), med: tb.Med.Stats(), rel: ws.Endpoint().Stats()}
	for _, n := range tb.Nodes {
		m := n.MAC().Stats()
		c.macSent += m.Sent
		c.macSentData += m.SentData
		c.macBeacons += m.SentBeacon
		c.macFrameRetries += m.FrameRetries
		c.macBackoffRetries += m.BackoffRetries
		s := n.Stack().Stats()
		c.stackDelivered += s.Delivered
		c.stackOverheard += s.FilteredDst
		for _, r := range tb.Routers(n.ID()) {
			rs := r.Stats()
			c.routeForwarded += rs.Forwarded
			c.routeDropped += rs.DroppedNoRoute + rs.DroppedTTL + rs.DroppedDup + rs.DroppedQueue + rs.ParkDrops
		}
	}
	return c
}

// sub returns the work done between b and a (a taken after b).
func (a counters) sub(b counters) counters {
	return counters{
		fired: a.fired - b.fired,
		now:   a.now - b.now,
		med: medium.Stats{
			Transmitted:        a.med.Transmitted - b.med.Transmitted,
			Delivered:          a.med.Delivered - b.med.Delivered,
			Corrupted:          a.med.Corrupted - b.med.Corrupted,
			MissedNotListening: a.med.MissedNotListening - b.med.MissedNotListening,
		},
		macSent:           a.macSent - b.macSent,
		macSentData:       a.macSentData - b.macSentData,
		macBeacons:        a.macBeacons - b.macBeacons,
		macFrameRetries:   a.macFrameRetries - b.macFrameRetries,
		macBackoffRetries: a.macBackoffRetries - b.macBackoffRetries,
		stackDelivered:    a.stackDelivered - b.stackDelivered,
		stackOverheard:    a.stackOverheard - b.stackOverheard,
		routeForwarded:    a.routeForwarded - b.routeForwarded,
		routeDropped:      a.routeDropped - b.routeDropped,
		rel: core.ReliableStats{
			DataSent:        a.rel.DataSent - b.rel.DataSent,
			Retransmissions: a.rel.Retransmissions - b.rel.Retransmissions,
		},
	}
}

// add accumulates d into c (summing tenants).
func (c *counters) add(d counters) {
	c.fired += d.fired
	c.now += d.now
	c.med.Transmitted += d.med.Transmitted
	c.med.Delivered += d.med.Delivered
	c.med.Corrupted += d.med.Corrupted
	c.med.MissedNotListening += d.med.MissedNotListening
	c.macSent += d.macSent
	c.macSentData += d.macSentData
	c.macBeacons += d.macBeacons
	c.macFrameRetries += d.macFrameRetries
	c.macBackoffRetries += d.macBackoffRetries
	c.stackDelivered += d.stackDelivered
	c.stackOverheard += d.stackOverheard
	c.routeForwarded += d.routeForwarded
	c.routeDropped += d.routeDropped
	c.rel.DataSent += d.rel.DataSent
	c.rel.Retransmissions += d.rel.Retransmissions
}
