// Package cli holds the deployment-construction logic shared by the
// command-line tools (liteview, lvtopo, lvtrace, lvserved): one flag
// set, one builder, identical semantics everywhere.
package cli

import (
	"flag"
	"fmt"
	"time"

	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// DeploymentFlags collects the topology knobs every tool exposes.
type DeploymentFlags struct {
	Topo    string
	Nodes   int
	Rows    int
	Cols    int
	Spacing float64
	Field   float64
	Seed    uint64
	Shadow  float64
	Asym    float64
	Warmup  time.Duration
	LPL     bool
	// Shard runs the deployment on the spatially sharded radio medium.
	// Results are byte-identical to the single-cell medium on topologies
	// that fit inside one detectability ring — sharding is a throughput
	// knob for large deployments.
	Shard bool
}

// Register installs the flags on fs with the shared defaults.
func (d *DeploymentFlags) Register(fs *flag.FlagSet) {
	fs.StringVar(&d.Topo, "topo", "line", "topology: line, grid, random")
	fs.IntVar(&d.Nodes, "nodes", 9, "node count (line/random)")
	fs.IntVar(&d.Rows, "rows", 3, "grid rows")
	fs.IntVar(&d.Cols, "cols", 3, "grid cols")
	fs.Float64Var(&d.Spacing, "spacing", 20, "node spacing in meters (line/grid)")
	fs.Float64Var(&d.Field, "field", 80, "field edge in meters (random)")
	fs.Uint64Var(&d.Seed, "seed", 1, "simulation seed")
	fs.Float64Var(&d.Shadow, "shadow", 1.0, "shadowing sigma in dB")
	fs.Float64Var(&d.Asym, "asym", 1.5, "link asymmetry sigma in dB")
	fs.DurationVar(&d.Warmup, "warmup", 20*time.Second, "virtual warm-up time for discovery")
	fs.BoolVar(&d.LPL, "lpl", false, "duty-cycle the deployment (low-power listening)")
	fs.BoolVar(&d.Shard, "shard", false, "partition the radio medium into spatial cells (throughput knob for large deployments)")
}

// Build assembles the testbed the flags describe (without protocols or
// warm-up; callers attach what they need, then WarmUp).
func (d *DeploymentFlags) Build() (*testbed.Testbed, error) {
	opt := testbed.DefaultOptions(d.Seed)
	opt.ShadowSigma = d.Shadow
	opt.AsymSigma = d.Asym
	opt.LPL = d.LPL
	opt.ShardMedium = d.Shard
	if d.LPL {
		// Broadcasts cost a full sleep interval of repeats under LPL:
		// beacon sparsely.
		opt.BeaconPeriod = 10 * time.Second
	}
	switch d.Topo {
	case "line":
		return testbed.Line(d.Nodes, d.Spacing, opt)
	case "grid":
		return testbed.Grid(d.Rows, d.Cols, d.Spacing, opt)
	case "random":
		return testbed.Random(d.Nodes, d.Field, d.Field, opt)
	default:
		return nil, fmt.Errorf("cli: unknown topology %q", d.Topo)
	}
}

// BuildManaged builds the testbed, attaches geographic forwarding and
// LiteView, and warms it up — the configuration every management tool
// starts from.
func (d *DeploymentFlags) BuildManaged() (*testbed.Testbed, error) {
	tb, err := d.Build()
	if err != nil {
		return nil, err
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		return nil, err
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, err
	}
	tb.WarmUp(d.Warmup)
	return tb, nil
}
