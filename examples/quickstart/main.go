// Quickstart: build a five-node simulated deployment, install LiteView,
// and run the paper's three core diagnosis workflows through the public
// API — a single-hop ping, a multi-hop traceroute, and a neighbor-table
// listing.
package main

import (
	"fmt"
	"log"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

func main() {
	// A 5-node line, 20 m apart: adjacent links are strong, two-span
	// links are marginal, so multi-hop routing is real.
	opt := testbed.DefaultOptions(7)
	tb, err := testbed.Line(5, 20, opt)
	if err != nil {
		log.Fatal(err)
	}
	// Geographic forwarding on port 10, as in the paper's examples.
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		log.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		log.Fatal(err)
	}
	// Let beacons populate the kernel neighbor tables.
	tb.WarmUp(20 * time.Second)

	// The management workstation stands next to node 1.
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("== single-hop ping: 192.168.0.1 → 192.168.0.2 ==")
	ping, err := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 3, Length: 32})
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range ping.Results {
		if r.Lost {
			fmt.Printf("round %d: lost\n", r.Seq+1)
			continue
		}
		fmt.Printf("round %d: RTT = %.1f ms, LQI = %d/%d, RSSI = %d/%d, Queue = %d/%d\n",
			r.Seq+1, float64(r.RTT)/1000, r.LQIFwd, r.LQIBwd, r.RSSIFwd, r.RSSIBwd, r.QFwd, r.QBwd)
	}
	fmt.Printf("statistics: sent=%d received=%d lost=%d (window %.0f ms)\n\n",
		ping.Sent, ping.Received, ping.Lost, float64(ping.ResponseDelay)/float64(time.Millisecond))

	fmt.Println("== traceroute: 192.168.0.1 → 192.168.0.5 over geographic forwarding ==")
	tr, err := ws.Traceroute(1, core.TrOptions{Dst: 5, Length: 32, RouterPort: routing.GeographicPort})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("protocol: %s\n", tr.Protocol)
	for _, rep := range tr.Reports {
		if rep.Lost {
			fmt.Printf("hop %d: no reply\n", rep.Hop)
			continue
		}
		fmt.Printf("hop %d via 192.168.0.%d: RTT = %.1f ms, LQI = %d/%d, RSSI = %d/%d (arrived +%.1f ms)\n",
			rep.Hop, rep.From, float64(rep.RTT)/1000,
			rep.LQIFwd, rep.LQIBwd, rep.RSSIFwd, rep.RSSIBwd,
			float64(rep.Delay)/float64(time.Millisecond))
	}
	fmt.Println()

	fmt.Println("== neighbor table of 192.168.0.3 (middle node) ==")
	nbrs, err := ws.NeighborList(3)
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range nbrs.Entries {
		fmt.Printf("  %-14s LQI=%-4d RSSI=%-4d PRR=%d%%\n", tb.NameOf(e.ID), e.LQI, e.RSSI, e.PRRPercent)
	}
}
