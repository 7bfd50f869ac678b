package testbed

import (
	"fmt"

	"liteview/internal/core"
	"liteview/internal/mac"
	"liteview/internal/phys"
	"liteview/internal/routing"
)

// LookupFor returns the runtime port→protocol resolver for node id,
// which LiteView's command engines use to select routing protocols at
// runtime.
func (tb *Testbed) LookupFor(id phys.NodeID) core.RouterLookup {
	return func(port byte) (*routing.Router, bool) {
		r, ok := tb.routers[port][id]
		return r, ok
	}
}

// InstallLiteView installs the LiteView runtime controller (and with it
// the ping and traceroute command processes) on every node. Attach the
// routing protocols first so the controllers can resolve them.
func (tb *Testbed) InstallLiteView() (map[phys.NodeID]*core.Controller, error) {
	out := make(map[phys.NodeID]*core.Controller, len(tb.Nodes))
	for _, n := range tb.Nodes {
		c, err := core.NewController(n, tb.LookupFor(n.ID()))
		if err != nil {
			return nil, fmt.Errorf("testbed: install LiteView on %s: %w", n.Name(), err)
		}
		if tb.tel != nil {
			c.SetTelemetry(tb.tel)
		}
		tb.ctls = append(tb.ctls, c)
		out[n.ID()] = c
	}
	return out, nil
}

// NewWorkstation places a management workstation at pos on this
// testbed's medium, matching the deployment's MAC mode (an LPL
// deployment needs an LPL-speaking workstation).
func (tb *Testbed) NewWorkstation(pos phys.Position) (*core.Workstation, error) {
	macCfg := mac.DefaultConfig()
	macCfg.LPL = tb.opt.LPL
	ws, err := core.NewWorkstationMAC(tb.Eng, tb.Med, pos, macCfg)
	if err != nil {
		return nil, err
	}
	if tb.tel != nil {
		ws.SetTelemetry(tb.tel)
	}
	tb.wss = append(tb.wss, ws)
	return ws, nil
}
