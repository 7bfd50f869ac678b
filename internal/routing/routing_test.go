package routing_test

import (
	"errors"
	"testing"
	"time"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/stack"
	"liteview/internal/testbed"
)

// lineBed builds an n-node line with deterministic radio (no shadowing)
// and converged neighbor tables.
func lineBed(t *testing.T, n int, spacing float64, seed uint64) *testbed.Testbed {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(n, spacing, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	return tb
}

// subscribe registers a collector on port at node idx (0-based).
func subscribe(t *testing.T, tb *testbed.Testbed, idx int, port byte, got *[]*stack.Packet) {
	t.Helper()
	err := tb.Node(idx).Stack().Subscribe(port, func(p *stack.Packet, _ phys.NodeID, _ medium.RxInfo) {
		*got = append(*got, p)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestGeographicMultiHopDelivery(t *testing.T) {
	tb := lineBed(t, 5, 20, 1)
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var got []*stack.Packet
	subscribe(t, tb, 4, 100, &got)
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(5, 100, []byte("hello"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(got))
	}
	if got[0].Origin != 1 || string(got[0].Data) != "hello" {
		t.Fatalf("packet = %+v", got[0])
	}
	// With 20 m spacing and ~45 m range the path should use >1 hop:
	// someone forwarded.
	forwarded := uint64(0)
	for id := phys.NodeID(2); id <= 4; id++ {
		rr, _ := tb.Router(routing.GeographicPort, id)
		forwarded += rr.Stats().Forwarded
	}
	if forwarded == 0 {
		t.Fatal("no intermediate hops forwarded; topology degenerated to one hop")
	}
}

func TestGeographicSelfDelivery(t *testing.T) {
	tb := lineBed(t, 2, 10, 2)
	tb.AttachGeographic(routing.DefaultConfig())
	var got []*stack.Packet
	subscribe(t, tb, 0, 100, &got)
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(1, 100, []byte("me"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(time.Second)
	if len(got) != 1 || string(got[0].Data) != "me" {
		t.Fatalf("self delivery failed: %v", got)
	}
}

func TestGeographicNoRoute(t *testing.T) {
	// Two nodes far out of radio range: no neighbor, no route.
	tb := lineBed(t, 2, 5000, 3)
	tb.AttachGeographic(routing.DefaultConfig())
	r, _ := tb.Router(routing.GeographicPort, 1)
	err := r.SendTo(2, 100, []byte("x"), false, false)
	if !errors.Is(err, routing.ErrNoRoute) {
		t.Fatalf("err = %v, want ErrNoRoute", err)
	}
	if r.Stats().DroppedNoRoute != 1 {
		t.Fatalf("stats = %+v", r.Stats())
	}
}

func TestGeographicUnknownDestination(t *testing.T) {
	tb := lineBed(t, 3, 20, 4)
	tb.AttachGeographic(routing.DefaultConfig())
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(99, 100, []byte("x"), false, false); !errors.Is(err, routing.ErrNoRoute) {
		t.Fatalf("err = %v", err)
	}
}

func TestBlacklistDivertsRouting(t *testing.T) {
	// 4 nodes, 15 m spacing: radio reaches ~2 hops. Node 1 normally
	// relays via node 2 (greedy picks the farthest-progress usable
	// neighbor = node 3 actually). Blacklist node 3 at node 1 and the
	// route must avoid it as first hop.
	tb := lineBed(t, 4, 15, 5)
	tb.AttachGeographic(routing.DefaultConfig())
	var got []*stack.Packet
	subscribe(t, tb, 3, 100, &got)

	n1 := tb.Node(0)
	if err := n1.SysNeighborTable().Blacklist(3, true); err != nil {
		t.Skipf("node 3 not in node 1's table at this spacing: %v", err)
	}
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(4, 100, []byte("detour"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	if len(got) != 1 {
		t.Fatalf("delivered %d, want 1", len(got))
	}
	// Node 2 must have forwarded (it is the only usable progress hop).
	r2, _ := tb.Router(routing.GeographicPort, 2)
	if r2.Stats().Forwarded == 0 {
		t.Fatal("route did not divert through node 2")
	}
}

func TestFloodingUnicastDelivery(t *testing.T) {
	tb := lineBed(t, 5, 20, 7)
	tb.AttachFlooding(routing.DefaultConfig())
	var got []*stack.Packet
	subscribe(t, tb, 4, 100, &got)
	r, _ := tb.Router(routing.FloodingPort, 1)
	if err := r.SendTo(5, 100, []byte("to-the-end"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(10 * time.Second)
	if len(got) != 1 {
		t.Fatalf("flood delivered %d copies to the destination, want exactly 1 (dedup)", len(got))
	}
	// Every node rebroadcasts at most once per packet.
	for id := phys.NodeID(1); id <= 5; id++ {
		rr, _ := tb.Router(routing.FloodingPort, id)
		st := rr.Stats()
		if st.Forwarded > 1 {
			t.Fatalf("node %d forwarded %d times for one flood", id, st.Forwarded)
		}
	}
}

func TestFloodingBroadcastDeliversToAll(t *testing.T) {
	tb := lineBed(t, 4, 20, 8)
	tb.AttachFlooding(routing.DefaultConfig())
	delivered := make(map[int]int)
	for i := 1; i < 4; i++ {
		i := i
		err := tb.Node(i).Stack().Subscribe(100, func(p *stack.Packet, _ phys.NodeID, _ medium.RxInfo) {
			delivered[i]++
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	r, _ := tb.Router(routing.FloodingPort, 1)
	if err := r.SendTo(phys.Broadcast, 100, []byte("all"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(10 * time.Second)
	for i := 1; i < 4; i++ {
		if delivered[i] != 1 {
			t.Fatalf("node %d received %d copies, want 1", i+1, delivered[i])
		}
	}
}

func TestTreeRoutesToRoot(t *testing.T) {
	tb := lineBed(t, 5, 20, 9)
	if err := tb.AttachTree(1, routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	// Let adverts propagate down the line.
	tb.Run(60 * time.Second)
	r5, _ := tb.Router(routing.TreePort, 5)
	if _, _, hasPath, ok := routing.TreeState(r5); !ok || !hasPath {
		t.Fatalf("node 5 has no path to root (ok=%v)", ok)
	}
	var got []*stack.Packet
	subscribe(t, tb, 0, 100, &got)
	if err := r5.SendTo(1, 100, []byte("report"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	if len(got) != 1 || got[0].Origin != 5 {
		t.Fatalf("collection failed: %v", got)
	}
}

func TestTreeRejectsNonRootDestination(t *testing.T) {
	tb := lineBed(t, 3, 20, 10)
	tb.AttachTree(1, routing.DefaultConfig())
	tb.Run(30 * time.Second)
	r3, _ := tb.Router(routing.TreePort, 3)
	if err := r3.SendTo(2, 100, []byte("x"), false, false); !errors.Is(err, routing.ErrNotForRoot) {
		t.Fatalf("err = %v, want ErrNotForRoot", err)
	}
}

func TestPaddingAccumulatesPerHop(t *testing.T) {
	tb := lineBed(t, 5, 20, 11)
	tb.AttachGeographic(routing.DefaultConfig())
	var got []*stack.Packet
	subscribe(t, tb, 4, 100, &got)
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(5, 100, make([]byte, 16), true, true); err != nil {
		t.Fatal(err)
	}
	tb.Run(5 * time.Second)
	if len(got) != 1 {
		t.Fatal("probe not delivered")
	}
	if len(got[0].Pad) < 2 {
		t.Fatalf("pad records = %d, want ≥ 2 on a multi-hop path", len(got[0].Pad))
	}
	for _, lq := range got[0].Pad {
		if lq.LQI < 50 || lq.LQI > 110 {
			t.Fatalf("pad LQI %d out of CC2420 range", lq.LQI)
		}
	}
}

func TestProtocolsCoexist(t *testing.T) {
	// The paper's extensibility goal: multiple protocols co-exist on
	// one stack with no recompilation and no cross-talk.
	tb := lineBed(t, 3, 15, 12)
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachFlooding(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachTree(1, routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	var viaGeo, viaFlood []*stack.Packet
	subscribe(t, tb, 2, 100, &viaGeo)
	subscribe(t, tb, 2, 101, &viaFlood)
	rg, _ := tb.Router(routing.GeographicPort, 1)
	rf, _ := tb.Router(routing.FloodingPort, 1)
	if err := rg.SendTo(3, 100, []byte("geo"), false, false); err != nil {
		t.Fatal(err)
	}
	if err := rf.SendTo(3, 101, []byte("flood"), false, false); err != nil {
		t.Fatal(err)
	}
	tb.Run(10 * time.Second)
	if len(viaGeo) != 1 || string(viaGeo[0].Data) != "geo" {
		t.Fatalf("geographic delivery: %v", viaGeo)
	}
	if len(viaFlood) != 1 || string(viaFlood[0].Data) != "flood" {
		t.Fatalf("flooding delivery: %v", viaFlood)
	}
}

func TestRouterNames(t *testing.T) {
	tb := lineBed(t, 2, 10, 13)
	tb.AttachGeographic(routing.DefaultConfig())
	tb.AttachFlooding(routing.DefaultConfig())
	tb.AttachTree(1, routing.DefaultConfig())
	rg, _ := tb.Router(routing.GeographicPort, 1)
	rf, _ := tb.Router(routing.FloodingPort, 1)
	rt, _ := tb.Router(routing.TreePort, 1)
	if rg.Name() != "geographic forwarding" {
		t.Fatalf("name = %q", rg.Name())
	}
	if rf.Name() != "flooding" || rt.Name() != "collection tree" {
		t.Fatalf("names = %q, %q", rf.Name(), rt.Name())
	}
	if rg.Port() != 10 {
		t.Fatalf("geographic port = %d, want 10 (paper)", rg.Port())
	}
}

func TestSendToValidation(t *testing.T) {
	tb := lineBed(t, 2, 10, 14)
	tb.AttachGeographic(routing.DefaultConfig())
	r, _ := tb.Router(routing.GeographicPort, 1)
	if err := r.SendTo(2, 0, []byte("x"), false, false); err == nil {
		t.Fatal("reserved inner port accepted")
	}
	if err := r.SendTo(2, 100, make([]byte, stack.PayloadCeiling), false, false); !errors.Is(err, routing.ErrDataLen) {
		t.Fatalf("oversize err = %v", err)
	}
}

func TestTTLExpiry(t *testing.T) {
	cfg := routing.DefaultConfig()
	cfg.DefaultTTL = 1 // allows exactly origin→hop→drop
	tb := lineBed(t, 5, 20, 15)
	if err := tb.AttachGeographic(cfg); err != nil {
		t.Fatal(err)
	}
	var got []*stack.Packet
	subscribe(t, tb, 4, 100, &got)
	r, _ := tb.Router(routing.GeographicPort, 1)
	r.SendTo(5, 100, []byte("short-lived"), false, false)
	tb.Run(5 * time.Second)
	if len(got) != 0 {
		t.Skip("path was short enough to deliver within TTL 1")
	}
	ttlDrops := uint64(0)
	for id := phys.NodeID(2); id <= 5; id++ {
		rr, _ := tb.Router(routing.GeographicPort, id)
		ttlDrops += rr.Stats().DroppedTTL
	}
	if ttlDrops == 0 {
		t.Fatal("packet vanished without a TTL drop")
	}
}

func TestCloseFreesPort(t *testing.T) {
	tb := lineBed(t, 2, 10, 16)
	tb.AttachGeographic(routing.DefaultConfig())
	r, _ := tb.Router(routing.GeographicPort, 1)
	r.Close()
	h := func(*stack.Packet, phys.NodeID, medium.RxInfo) {}
	if err := tb.Node(0).Stack().Subscribe(routing.GeographicPort, h); err != nil {
		t.Fatalf("port still subscribed after Close: %v", err)
	}
}
