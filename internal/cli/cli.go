// Package cli holds the one recipe every command-line tool (liteview,
// lvserved's tenants, lvtopo) builds its deployment from: one flag set,
// the four routing protocols on their ports, LiteView installed, a
// workstation at node 1 and a shell on it.
package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/shell"
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

// BuildManaged builds the deployment every tool runs: the testbed the
// flags describe with geographic forwarding (port 10), flooding (11),
// the collection tree rooted at node 1 (12) and on-demand routing (13)
// on every node, and LiteView installed. It does not warm up: Session
// does, so a caller can start recording first.
func (d *DeploymentFlags) BuildManaged() (*testbed.Testbed, error) {
	tb, err := d.Build()
	if err != nil {
		return nil, err
	}
	cfg := routing.DefaultConfig()
	for _, attach := range []func() error{
		func() error { return tb.AttachGeographic(cfg) },
		func() error { return tb.AttachFlooding(cfg) },
		func() error { return tb.AttachTree(phys.NodeID(1), cfg) },
		func() error { return tb.AttachOnDemand(cfg) },
	} {
		if err := attach(); err != nil {
			return nil, err
		}
	}
	if _, err := tb.InstallLiteView(); err != nil {
		return nil, err
	}
	return tb, nil
}

// Session warms tb up for the flags' warm-up time, places the
// workstation at node 1 and opens a shell on it that writes to out.
func (d *DeploymentFlags) Session(tb *testbed.Testbed, out io.Writer) (*shell.Shell, error) {
	tb.WarmUp(d.Warmup)
	ws, err := tb.NewWorkstation(tb.Node(0).Position())
	if err != nil {
		return nil, err
	}
	return shell.NewForTestbed(tb, ws, out)
}
