package testbed

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/routing"
)

func TestLineNamingAndGeometry(t *testing.T) {
	tb, err := Line(9, 25, DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Nodes) != 9 {
		t.Fatalf("nodes = %d", len(tb.Nodes))
	}
	n1 := tb.Node(0)
	if n1.Name() != "192.168.0.1" || n1.Path() != "/sn01/192.168.0.1" {
		t.Fatalf("naming: %q %q", n1.Name(), n1.Path())
	}
	n9 := tb.Node(8)
	if n9.Position().X != 200 {
		t.Fatalf("node 9 at %v, want x=200", n9.Position())
	}
	if n, ok := tb.ByName("192.168.0.5"); !ok || n.ID() != 5 {
		t.Fatal("ByName lookup failed")
	}
	if n, ok := tb.ByID(3); !ok || n.Name() != "192.168.0.3" {
		t.Fatal("ByID lookup failed")
	}
	if _, ok := tb.ByID(99); ok {
		t.Fatal("phantom node")
	}
}

func TestGridGeometry(t *testing.T) {
	tb, err := Grid(3, 4, 10, DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Nodes) != 12 {
		t.Fatalf("nodes = %d", len(tb.Nodes))
	}
	last := tb.Node(11).Position()
	if last.X != 30 || last.Y != 20 {
		t.Fatalf("corner at %v", last)
	}
}

func TestRandomReproducible(t *testing.T) {
	a, err := Random(10, 100, 100, DefaultOptions(7))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Random(10, 100, 100, DefaultOptions(7))
	for i := range a.Nodes {
		if a.Node(i).Position() != b.Node(i).Position() {
			t.Fatal("same seed produced different layouts")
		}
	}
	c, _ := Random(10, 100, 100, DefaultOptions(8))
	same := 0
	for i := range a.Nodes {
		if a.Node(i).Position() == c.Node(i).Position() {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical layouts")
	}
	for _, n := range a.Nodes {
		p := n.Position()
		if p.X < 0 || p.X > 100 || p.Y < 0 || p.Y > 100 {
			t.Fatalf("node outside field: %v", p)
		}
	}
}

func TestValidation(t *testing.T) {
	if _, err := Line(0, 10, DefaultOptions(1)); err == nil {
		t.Fatal("empty line accepted")
	}
	if _, err := Grid(0, 5, 10, DefaultOptions(1)); err == nil {
		t.Fatal("empty grid accepted")
	}
	if _, err := Random(0, 10, 10, DefaultOptions(1)); err == nil {
		t.Fatal("empty random accepted")
	}
	if _, err := Line(maxNodes+1, 1, DefaultOptions(1)); err == nil {
		t.Fatal("oversized testbed accepted")
	}
}

func TestWarmUpPopulatesTables(t *testing.T) {
	opt := DefaultOptions(3)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := Line(3, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	mid := tb.Node(1)
	if mid.SysNeighborTable().Len() < 2 {
		t.Fatalf("middle node knows %d neighbors, want 2", mid.SysNeighborTable().Len())
	}
}

func TestLocator(t *testing.T) {
	tb, _ := Line(2, 10, DefaultOptions(4))
	loc := tb.Locator()
	if p, ok := loc(2); !ok || p.X != 10 {
		t.Fatalf("locator(2) = %v, %v", p, ok)
	}
	if _, ok := loc(42); ok {
		t.Fatal("locator resolved a phantom node")
	}
}

func TestAttachAndRouterLookup(t *testing.T) {
	opt := DefaultOptions(5)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, _ := Line(3, 20, opt)
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachFlooding(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachTree(1, routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for _, port := range []byte{routing.GeographicPort, routing.FloodingPort, routing.TreePort} {
		for id := phys.NodeID(1); id <= 3; id++ {
			if _, ok := tb.Router(port, id); !ok {
				t.Fatalf("router port %d missing at node %d", port, id)
			}
		}
	}
	if _, ok := tb.Router(99, 1); ok {
		t.Fatal("phantom router")
	}
}

func TestDeterministicTrace(t *testing.T) {
	run := func() (uint64, uint64) {
		opt := DefaultOptions(11)
		tb, err := Line(5, 20, opt)
		if err != nil {
			t.Fatal(err)
		}
		tb.WarmUp(30 * time.Second)
		s := tb.Med.Stats()
		return s.Transmitted, s.Delivered
	}
	t1, d1 := run()
	t2, d2 := run()
	if t1 != t2 || d1 != d2 {
		t.Fatalf("same seed diverged: (%d,%d) vs (%d,%d)", t1, d1, t2, d2)
	}
	if t1 == 0 {
		t.Fatal("no traffic during warm-up")
	}
}

func TestChannelOption(t *testing.T) {
	opt := DefaultOptions(6)
	opt.Channel = 20
	tb, err := Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Node(0).Radio().Channel() != 20 {
		t.Fatalf("channel = %d", tb.Node(0).Radio().Channel())
	}
}

func TestLargeDeploymentNaming(t *testing.T) {
	// 17×16 = 272 nodes rolls past the first /24.
	tb, err := Grid(17, 16, 15, DefaultOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Node(249).Name(); got != "192.168.0.250" {
		t.Fatalf("node 250 named %q", got)
	}
	if got := tb.Node(250).Name(); got != "192.168.1.1" {
		t.Fatalf("node 251 named %q", got)
	}
	if n, ok := tb.ByName("192.168.1.22"); !ok || n.ID() != 272 {
		t.Fatal("ByName lookup failed past the first subnet")
	}
	// Every name must stay unique.
	seen := make(map[string]bool, len(tb.Nodes))
	for _, n := range tb.Nodes {
		if seen[n.Name()] {
			t.Fatalf("duplicate name %q", n.Name())
		}
		seen[n.Name()] = true
	}
	if _, err := Grid(251, 250, 5, DefaultOptions(3)); err == nil {
		t.Fatal("oversized deployment accepted")
	}
}

// TestSubnetRollNaming is the regression for the /24 roll boundary: the
// 250th host of every subnet used to be emitted as host 0 of the next
// one ("192.168.2.0" for node 500 — an invalid host in the wrong /24),
// and the very last node in the address space fell outside it entirely.
func TestSubnetRollNaming(t *testing.T) {
	cases := map[int]string{
		1:        "192.168.0.1",
		250:      "192.168.0.250", // last host of the first subnet
		251:      "192.168.1.1",
		500:      "192.168.1.250", // roll boundary: was "192.168.2.0"
		501:      "192.168.2.1",
		502:      "192.168.2.2", // the doc comment's example
		750:      "192.168.2.250",
		62250:    "192.168.248.250",
		62251:    "192.168.249.1",
		maxNodes: "192.168.249.250", // was "192.168.250.0", outside the space
	}
	for x, want := range cases {
		if got := nodeName(x); got != want {
			t.Errorf("nodeName(%d) = %q, want %q", x, got, want)
		}
	}
	// No name may repeat and every host octet must stay in 1..250
	// across the whole address space.
	seen := make(map[string]bool, maxNodes)
	for x := 1; x <= maxNodes; x++ {
		name := nodeName(x)
		if seen[name] {
			t.Fatalf("duplicate name %q at node %d", name, x)
		}
		seen[name] = true
		var a, b, c, d int
		if _, err := fmt.Sscanf(name, "%d.%d.%d.%d", &a, &b, &c, &d); err != nil {
			t.Fatalf("unparseable name %q", name)
		}
		if d < 1 || d > 250 || c < 0 || c > 249 {
			t.Fatalf("node %d named %q: octets outside the 250×250 space", x, name)
		}
	}
}

// TestOverCapTopologyTypedError pins the typed rejection: callers gate
// on errors.Is(err, ErrTooManyNodes).
func TestOverCapTopologyTypedError(t *testing.T) {
	_, err := Line(maxNodes+1, 1, DefaultOptions(1))
	if !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("over-cap error = %v, want errors.Is ErrTooManyNodes", err)
	}
	if _, err := Line(maxNodes, 1, DefaultOptions(1)); errors.Is(err, ErrTooManyNodes) {
		t.Fatal("exactly-at-cap deployment rejected")
	}
}

// TestShardMediumOption checks the deployment option wires sharding
// into the medium and that a sharded warm-up reproduces the unsharded
// packet trace on a single-ring deployment.
func TestShardMediumOption(t *testing.T) {
	opt := DefaultOptions(11)
	opt.ShardMedium = true
	tb, err := Line(5, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !tb.Med.Sharded() {
		t.Fatal("ShardMedium option did not shard the medium")
	}
	tb.WarmUp(30 * time.Second)
	s := tb.Med.Stats()
	base, err := Line(5, 20, DefaultOptions(11))
	if err != nil {
		t.Fatal(err)
	}
	base.WarmUp(30 * time.Second)
	if bs := base.Med.Stats(); s != bs {
		t.Fatalf("sharded warm-up diverged from unsharded: %+v vs %+v", s, bs)
	}
}
