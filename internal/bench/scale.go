package bench

import (
	"fmt"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
	"liteview/internal/trace"
)

// scaleDeployment is one row of the scale experiment: a square grid
// driven through warm-up plus the paper's management commands (a ping
// to the workstation's neighbour and a traceroute into the interior).
type scaleDeployment struct {
	side   int
	warmup time.Duration
	// shard runs the deployment on the spatially sharded medium: ring-
	// bounded fan-outs and interference scans, which is what makes 10k
	// nodes tractable.
	shard bool
	// dst is the traceroute destination. The 20×20 grid targets its
	// centre, as the paper's experiment does; the 10k grid targets a
	// near-interior node so the route fits the command window.
	dst phys.NodeID
}

// runScaleDeployment builds and drives one deployment, appends its
// table row, and reports the figures the shape checks need.
func runScaleDeployment(r *Result, d scaleDeployment, seed uint64, opt Options) error {
	tbOpt := testbed.DefaultOptions(seed)
	tbOpt.ShadowSigma = 0
	tbOpt.AsymSigma = 0
	tbOpt.ShardMedium = d.shard
	tb, err := testbed.Grid(d.side, d.side, 14, tbOpt)
	if err != nil {
		return err
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		return err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return err
	}
	var rec *telemetry.Recorder
	if opt.tracing() && !d.shard {
		// One telemetry artifact per run is plenty; the 10k deployment
		// would dwarf every other trace in the suite.
		rec = tb.Telemetry()
		rec.Start()
	}

	start := time.Now()
	tb.WarmUp(d.warmup)
	ws, err := tb.NewWorkstation(phys.Position{X: -2, Y: -2})
	if err != nil {
		return err
	}
	p, perr := ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32})
	if p == nil {
		return fmt.Errorf("ping returned no output: %w", perr)
	}
	tr, terr := ws.Traceroute(1, core.TrOptions{Dst: d.dst, Length: 32, RouterPort: routing.GeographicPort})
	if tr == nil {
		return fmt.Errorf("traceroute returned no output: %w", terr)
	}
	wall := time.Since(start)

	stats := tb.Med.Stats()
	simS := float64(tb.Eng.Now()) / float64(time.Second)
	wallS := wall.Seconds()
	nsPerSimS := 0.0
	if simS > 0 {
		nsPerSimS = float64(wall.Nanoseconds()) / simS
	}
	txPerWallS := 0.0
	if wallS > 0 {
		txPerWallS = float64(stats.Transmitted) / wallS
	}
	if opt.NoWallClock {
		// Wall-clock readings vary run to run; the determinism
		// regression compares rendered output byte for byte, so the
		// real-time columns collapse to placeholders.
		r.Table.AddRow(d.side*d.side, stats.Transmitted, stats.Delivered, simS, "-", "-", "-")
	} else {
		r.Table.AddRow(d.side*d.side, stats.Transmitted, stats.Delivered, simS,
			float64(wall.Milliseconds()), nsPerSimS, txPerWallS)
	}

	label := fmt.Sprintf("%d×%d", d.side, d.side)
	r.note("%s: ping 1→2: %d/%d replies (%s); traceroute →%d: %d hop reports (%s)",
		label, p.Received, p.Sent, p.Verdict, d.dst, len(tr.Reports), tr.Verdict)
	r.check(label+" grid built", tb.Med.Nodes() == d.side*d.side+1,
		"%d nodes attached (grid + workstation)", tb.Med.Nodes())
	if d.shard {
		cells, cellSize, ring := tb.Med.ShardInfo()
		r.check(label+" medium sharded", tb.Med.Sharded() && cells > 1,
			"%d cells of %.0f m (ring %d)", cells, cellSize, ring)
	}
	r.check(label+" neighbour ping answered", p.Received > 0,
		"%d/%d replies", p.Received, p.Sent)
	r.check(label+" traceroute progressed", len(tr.Reports) > 0,
		"%d hop reports toward node %d", len(tr.Reports), d.dst)
	r.check(label+" traffic flowed", stats.Transmitted > 0 && stats.Delivered > 0,
		"%d frames on the air, %d deliveries", stats.Transmitted, stats.Delivered)
	if opt.NoWallClock {
		r.check(label+" throughput measured", simS > 0 && wallS > 0,
			"%.1f sim seconds simulated (wall-clock readings suppressed)", simS)
	} else {
		r.check(label+" throughput measured", simS > 0 && wallS > 0,
			"%.1f sim seconds in %.0f ms wall (%.0f ns wall per sim second)",
			simS, float64(wall.Milliseconds()), nsPerSimS)
	}

	if rec != nil {
		rec.Stop()
		if err := writeTelemetry(opt, "scale", rec); err != nil {
			return fmt.Errorf("telemetry artifacts: %w", err)
		}
	}
	return nil
}

// Scale exercises the medium's large-deployment path at two sizes: the
// 400-node grid (an order of magnitude past the paper's 30-mote
// testbed) on the plain indexed medium, and a 10,000-node grid on the
// spatially sharded medium — the same management commands, with
// wall-clock throughput figures (how many virtual nanoseconds each
// real second buys) per row. Candidate sets and link tables make the
// 400-node row tractable; the cell partition (ring-bounded fan-outs,
// per-cell interference ledgers) is what carries the 10k row. BenchmarkMediumDeliver in the repository root
// quantifies the per-delivery speedups.
func Scale(seed uint64, opt Options) (*Result, error) {
	base := scaleDeployment{side: 20, warmup: 10 * time.Second}
	big := scaleDeployment{side: 100, warmup: 6 * time.Second, shard: true}
	if opt.Short {
		base.side = 10
		base.warmup = 6 * time.Second
		// The 10k smoke keeps its node count — the whole point is the
		// scale — and trims the warm-up to two beacon rounds.
		big.warmup = 4 * time.Second
	}
	if opt.scaleBigSide > 0 {
		big.side = opt.scaleBigSide
	}
	base.dst = phys.NodeID(base.side*base.side/2 + base.side/2 + 1) // grid centre
	big.dst = phys.NodeID(3*big.side + 4)                           // (42 m, 42 m): a few hops in

	r := &Result{ID: "SCALE", Title: "medium scalability: commands on 400-node and 10k-node grids"}
	r.Table = trace.NewTable("nodes", "tx_frames", "deliveries", "sim_s", "wall_ms", "wall_ns_per_sim_s", "tx_per_wall_s")
	for _, d := range []scaleDeployment{base, big} {
		if err := runScaleDeployment(r, d, seed, opt); err != nil {
			return nil, err
		}
	}
	r.Trials = 2
	return r, nil
}
