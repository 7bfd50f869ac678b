package cli

import (
	"flag"
	"io"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/routing"
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

// TestBuildManaged pins the recipe every tool runs: the four routing
// protocols on ports 10–13, the collection tree rooted at node 1,
// LiteView installed, warm-up in Session, and the workstation at node 1.
func TestBuildManaged(t *testing.T) {
	d := parse(t, "-nodes", "3", "-spacing", "15", "-shadow", "0", "-asym", "0", "-warmup", "10s")
	tb, err := d.BuildManaged()
	if err != nil {
		t.Fatal(err)
	}
	for port := byte(10); port <= 13; port++ {
		for id := phys.NodeID(1); id <= 3; id++ {
			if _, ok := tb.Router(port, id); !ok {
				t.Fatalf("no router on port %d at node %d", port, id)
			}
		}
	}
	// LiteView is installed: the ping binary is in flash.
	if _, ok := tb.Node(0).BinaryInfo("ping"); !ok {
		t.Fatal("LiteView not installed")
	}
	if tb.Eng.Now() != 0 {
		t.Fatalf("BuildManaged warmed up: %v", tb.Eng.Now())
	}
	if _, err := d.Session(tb, io.Discard); err != nil {
		t.Fatal(err)
	}
	if tb.Eng.Now() != 10*time.Second {
		t.Fatalf("warm-up did not run: %v", tb.Eng.Now())
	}
	for id := phys.NodeID(1); id <= 3; id++ {
		r, _ := tb.Router(routing.TreePort, id)
		parent, cost, hasPath, _ := routing.TreeState(r)
		if !hasPath || (id == 1) != (cost == 0) {
			t.Fatalf("node %d: tree parent %d cost %v path %v; want a path, cost 0 only at root node 1",
				id, parent, cost, hasPath)
		}
	}

	// Nodes 60 m apart cannot hear each other: only the node the
	// workstation sits at answers it.
	d = parse(t, "-nodes", "2", "-spacing", "60", "-shadow", "0", "-asym", "0", "-warmup", "5s")
	if tb, err = d.BuildManaged(); err != nil {
		t.Fatal(err)
	}
	sh, err := d.Session(tb, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		node string
		ok   bool
	}{{"192.168.0.1", true}, {"192.168.0.2", false}} {
		if err := sh.Exec("cd " + c.node); err != nil {
			t.Fatal(err)
		}
		if err := sh.Exec("ls"); (err == nil) != c.ok {
			t.Fatalf("ls at %s: err=%v, want answered=%v (workstation at node 1)", c.node, err, c.ok)
		}
	}
}

func TestLPLFlag(t *testing.T) {
	d := parse(t, "-nodes", "2", "-lpl", "-warmup", "10s", "-shadow", "0", "-asym", "0")
	tb, err := d.BuildManaged()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Session(tb, io.Discard); err != nil {
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
