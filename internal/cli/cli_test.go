package cli

import (
	"flag"
	"testing"
	"time"
)

func parse(t *testing.T, args ...string) *DeploymentFlags {
	t.Helper()
	var d DeploymentFlags
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	d.Register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return &d
}

func TestDefaultsBuildALine(t *testing.T) {
	d := parse(t)
	tb, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Nodes) != 9 {
		t.Fatalf("nodes = %d", len(tb.Nodes))
	}
	if tb.Node(8).Position().X != 160 {
		t.Fatalf("spacing wrong: %v", tb.Node(8).Position())
	}
}

func TestGridAndRandomFlags(t *testing.T) {
	d := parse(t, "-topo", "grid", "-rows", "2", "-cols", "5", "-spacing", "10")
	tb, err := d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Nodes) != 10 {
		t.Fatalf("grid nodes = %d", len(tb.Nodes))
	}
	d = parse(t, "-topo", "random", "-nodes", "7", "-field", "50", "-seed", "3")
	tb, err = d.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Nodes) != 7 {
		t.Fatalf("random nodes = %d", len(tb.Nodes))
	}
	for _, n := range tb.Nodes {
		p := n.Position()
		if p.X < 0 || p.X > 50 || p.Y < 0 || p.Y > 50 {
			t.Fatalf("node outside field: %v", p)
		}
	}
}

func TestUnknownTopologyRejected(t *testing.T) {
	d := parse(t, "-topo", "torus")
	if _, err := d.Build(); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

func TestBuildManaged(t *testing.T) {
	d := parse(t, "-nodes", "3", "-spacing", "15", "-shadow", "0", "-asym", "0", "-warmup", "10s")
	tb, err := d.BuildManaged()
	if err != nil {
		t.Fatal(err)
	}
	if tb.Eng.Now() != 10*time.Second {
		t.Fatalf("warm-up did not run: %v", tb.Eng.Now())
	}
	// LiteView is installed: the ping binary is in flash.
	if _, ok := tb.Node(0).BinaryInfo("ping"); !ok {
		t.Fatal("LiteView not installed")
	}
	// Geographic forwarding attached on port 10.
	if _, ok := tb.Router(10, 1); !ok {
		t.Fatal("geographic forwarding missing")
	}
}

func TestLPLFlag(t *testing.T) {
	d := parse(t, "-nodes", "2", "-lpl", "-warmup", "10s", "-shadow", "0", "-asym", "0")
	tb, err := d.BuildManaged()
	if err != nil {
		t.Fatal(err)
	}
	// Beacon period widened automatically for LPL.
	if tb.Node(0).Neighbors().Period() != 10*time.Second {
		t.Fatalf("beacon period = %v", tb.Node(0).Neighbors().Period())
	}
	st := tb.Node(1).Energy().Stats()
	if st.OffTime == 0 {
		t.Fatal("LPL flag did not duty-cycle the nodes")
	}
}
