package liteview

// AllocsPerRun guards for the zero-alloc frame path: once pools and
// caches are warm, a full one-hop delivery — stack encode, MAC
// enqueue/CSMA, medium delivery, MAC decode + dedup,
// stack dispatch, and (for unicast) the auto-ack exchange — must not
// touch the allocator. These are tests, not benchmarks, so `go test`
// alone catches an allocation regression without -bench flags.

import (
	"reflect"
	"testing"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/neighbor"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/sim"
	"liteview/internal/stack"
	"liteview/internal/testbed"
)

// framePath is the one-hop delivery rig of the zero-alloc pins and of
// BenchmarkFramePath: real MACs and stacks on one medium.
type framePath struct {
	eng *sim.Engine
	tx  *stack.Stack
	rxs []*stack.Stack
	pkt *stack.Packet // what send puts on the air
	got int           // payload bytes delivered to port 10 on node 2
}

// sinrCorruptDist is where, on the rig's model and seed, every frame
// from node 1 still clears the sensitivity floor but loses the SINR
// draw.
const sinrCorruptDist = 90

// buildFramePath wires a sender (node 1) and a receiver 5 m away (node
// 2) whose port-10 handler counts payload bytes. With corrupted set,
// node 2's MAC injects bit errors into every frame (the rxFault path)
// and node 3 listens sinrCorruptDist away, so every reception takes the
// corrupted path and counts as a CRC failure.
func buildFramePath(tb testing.TB, corrupted bool) *framePath {
	tb.Helper()
	p := &framePath{eng: sim.NewEngine(7),
		pkt: &stack.Packet{Port: 10, Origin: 1, Dst: 2, TTL: 4, Data: make([]byte, 32)}}
	med := medium.New(p.eng, phys.DefaultModel(7))
	mkNode := func(id phys.NodeID, pos phys.Position) *stack.Stack {
		rad, err := radio.New(17)
		if err != nil {
			tb.Fatal(err)
		}
		var st *stack.Stack
		m, err := mac.New(p.eng, med, rad, id, pos, mac.DefaultConfig(),
			func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
		if err != nil {
			tb.Fatal(err)
		}
		st = stack.New(p.eng, m)
		return st
	}
	p.tx = mkNode(1, phys.Position{})
	p.rxs = append(p.rxs, mkNode(2, phys.Position{X: 5}))
	if err := p.rxs[0].Subscribe(10, func(pkt *stack.Packet, _ phys.NodeID, _ medium.RxInfo) {
		p.got += len(pkt.Data)
	}); err != nil {
		tb.Fatal(err)
	}
	if corrupted {
		p.rxs[0].MAC().SetRxFault(func(phys.NodeID) bool { return true })
		p.rxs = append(p.rxs, mkNode(3, phys.Position{X: sinrCorruptDist}))
	}
	return p
}

// send puts the rig's 32-byte packet on the air for dst and runs the
// engine until the exchange is over.
func (p *framePath) send(tb testing.TB, dst phys.NodeID) {
	if err := p.tx.Send(p.pkt, dst, mac.TypeData, nil); err != nil {
		tb.Fatal(err)
	}
	p.eng.Run()
}

// crcFailures sums the receivers' CRC failure counters.
func (p *framePath) crcFailures() uint64 {
	var n uint64
	for _, st := range p.rxs {
		n += st.MAC().Stats().CRCFailures
	}
	return n
}

func checkZeroAllocDelivery(t *testing.T, dst phys.NodeID, corrupted bool) {
	t.Helper()
	p := buildFramePath(t, corrupted)
	send := func() { p.send(t, dst) }
	for i := 0; i < 16; i++ {
		send() // warm link caches, event free list, frame pools
	}
	failed := p.crcFailures()
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, send); allocs != 0 {
		t.Fatalf("steady-state delivery to %v allocates %.1f allocs/op, want 0", dst, allocs)
	}
	if corrupted {
		// AllocsPerRun calls send once more to warm up.
		if got, want := p.crcFailures()-failed, uint64(len(p.rxs)*(runs+1)); got != want {
			t.Fatalf("%d CRC failures over %d corrupted receptions", got, want)
		}
		return
	}
	if p.got == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestSteadyStateDeliveryZeroAllocBroadcast(t *testing.T) {
	checkZeroAllocDelivery(t, phys.Broadcast, false)
}

func TestSteadyStateDeliveryZeroAllocUnicastAcked(t *testing.T) {
	checkZeroAllocDelivery(t, 2, false)
}

// TestSteadyStateDeliveryZeroAllocCorrupted pins the corrupted receive
// path, both the SINR-corrupted and the rxFault kind: a corrupted
// reception is counted as a CRC failure without copying the frame.
func TestSteadyStateDeliveryZeroAllocCorrupted(t *testing.T) {
	checkZeroAllocDelivery(t, phys.Broadcast, true)
}

// TestBeaconReceptionZeroAlloc pins the neighbor service's receive
// path: a steady stream of beacons is folded into the table without
// allocating.
func TestBeaconReceptionZeroAlloc(t *testing.T) {
	p := buildFramePath(t, false)
	table := neighbor.NewTable(8)
	if _, err := neighbor.NewService(p.eng, p.rxs[0], table, "192.168.0.2"); err != nil {
		t.Fatal(err)
	}
	const name = "192.168.0.1"
	beacon := &stack.Packet{Port: neighbor.BeaconPort, Origin: 1, Dst: phys.Broadcast, TTL: 1,
		Data: append([]byte{0, 0}, name...)}
	send := func() {
		beacon.Data[1]++ // next sequence number
		if err := p.tx.Send(beacon, phys.Broadcast, mac.TypeBeacon, nil); err != nil {
			t.Fatal(err)
		}
		p.eng.Run()
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("steady-state beacon reception allocates %.1f allocs/op, want 0", allocs)
	}
	if e, ok := table.Get(1); !ok || e.PRR < 0.99 {
		t.Fatalf("node 1 in node 2's table: %+v (found %v), want PRR 1", e, ok)
	}
}

// TestLPLDutyCycleZeroAlloc pins the LPL duty cycle: each run, a
// duty-cycled receiver wakes into a broadcast's repeats, lingers, jumps
// its sleep checks past the linger and sleeps again, and the sender
// wakes to transmit and sleeps after its repeats, all without
// allocating.
func TestLPLDutyCycleZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(3)
	med := medium.New(eng, phys.DefaultModel(3))
	cfg := mac.DefaultConfig()
	cfg.LPL = true
	heard := 0
	var macs []*mac.MAC
	for i, x := range []float64{0, 5} {
		rad, err := radio.New(17)
		if err != nil {
			t.Fatal(err)
		}
		m, err := mac.New(eng, med, rad, phys.NodeID(i+1), phys.Position{X: x}, cfg,
			func(mac.Frame, medium.RxInfo) { heard++ })
		if err != nil {
			t.Fatal(err)
		}
		macs = append(macs, m)
	}
	payload := make([]byte, 32)
	cycle := func() {
		f := mac.Frame{Type: mac.TypeData, Dst: phys.Broadcast, Payload: payload}
		if err := macs[0].Send(f, nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(eng.Now() + 3*mac.SleepInterval)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	before := heard
	const runs = 200
	if allocs := testing.AllocsPerRun(runs, cycle); allocs != 0 {
		t.Fatalf("LPL duty cycle allocates %.1f allocs/op, want 0", allocs)
	}
	// AllocsPerRun runs the cycle once more to warm up.
	if got := heard - before; got != runs+1 {
		t.Fatalf("receiver heard %d of %d broadcasts", got, runs+1)
	}
}

// TestFullTableRejectsStrangerZeroAlloc pins the reject path of a full
// neighbor table: node 2's table is full of links node 1's beacons
// cannot beat (LQI 110 and the largest RSSI register value), so every
// beacon from node 1 is turned away, without allocating and without
// changing the table.
func TestFullTableRejectsStrangerZeroAlloc(t *testing.T) {
	p := buildFramePath(t, false)
	table := neighbor.NewTable(8)
	for id := phys.NodeID(10); id < 18; id++ {
		table.Observe(id, 110, 127, p.eng.Now())
	}
	if _, err := neighbor.NewService(p.eng, p.rxs[0], table, "192.168.0.2"); err != nil {
		t.Fatal(err)
	}
	before := table.Entries()
	beacon := &stack.Packet{Port: neighbor.BeaconPort, Origin: 1, Dst: phys.Broadcast, TTL: 1,
		Data: append([]byte{0, 0}, "192.168.0.1"...)}
	send := func() {
		beacon.Data[1]++ // next sequence number
		if err := p.tx.Send(beacon, phys.Broadcast, mac.TypeBeacon, nil); err != nil {
			t.Fatal(err)
		}
		p.eng.Run()
	}
	for i := 0; i < 16; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(200, send); allocs != 0 {
		t.Fatalf("rejecting a stranger's beacon allocates %.1f allocs/op, want 0", allocs)
	}
	if got := table.Entries(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected beacons changed the table: %+v, want %+v", got, before)
	}
}

// TestGeographicNextHopZeroAlloc pins greedy geographic forwarding's
// next-hop choice on a full neighbor table: the router walks the
// table's usable entries in place, and the walk's closure does not
// escape, so choosing a hop for a forwarded or originated packet does
// not allocate. Two neighbors tie for the most progress; the lower ID
// wins, as in ID order it comes first.
func TestGeographicNextHopZeroAlloc(t *testing.T) {
	p := buildFramePath(t, false)
	table := neighbor.NewTable(neighbor.DefaultCapacity)
	const dst = phys.NodeID(100)
	pos := map[phys.NodeID]phys.Position{1: {}, dst: {X: 1000}}
	for i := 0; i < neighbor.DefaultCapacity; i++ {
		id := phys.NodeID(i + 2)
		pos[id] = phys.Position{X: float64(i % 8 * 5), Y: float64(i/8*20 - 10)}
		table.Observe(id, 110, 0, p.eng.Now())
	}
	r, err := routing.NewGeographicOnPort(p.eng, p.tx, table, func(id phys.NodeID) (phys.Position, bool) {
		q, ok := pos[id]
		return q, ok
	}, routing.GeographicPort, routing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var next phys.NodeID
	choose := func() {
		if next, err = r.NextHop(dst); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(200, choose); allocs != 0 {
		t.Fatalf("geographic next-hop choice allocates %.1f allocs/op, want 0", allocs)
	}
	// Nodes 9 (35, -10) and 17 (35, 10) make the most progress.
	if next != 9 {
		t.Fatalf("next hop %d, want 9", next)
	}
}

// TestEnginePooledScheduleZeroAlloc pins the handle-free After/AfterArg
// paths: a warm engine schedules and fires pooled events without
// allocating, including the LPL-style many-ticker pattern.
func TestEnginePooledScheduleZeroAlloc(t *testing.T) {
	eng := sim.NewEngine(1)
	fn := func() {}
	tick := func() {
		eng.After(1000, fn)
		eng.Run()
	}
	for i := 0; i < 16; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(200, tick); allocs != 0 {
		t.Fatalf("pooled After allocates %.1f allocs/op, want 0", allocs)
	}
	argFn := func(any) {}
	arg := &struct{}{}
	tickArg := func() {
		eng.AfterArg(1000, argFn, arg)
		eng.Run()
	}
	tickArg()
	if allocs := testing.AllocsPerRun(200, tickArg); allocs != 0 {
		t.Fatalf("pooled AfterArg allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestRecentFullTableZeroAlloc pins sim.Recent, the bounded table behind
// every per-node duplicate filter: once full, a hit, a miss and an
// evicting insert do not allocate.
func TestRecentFullTableZeroAlloc(t *testing.T) {
	r := sim.NewRecent[phys.NodeID, byte](32)
	for src := phys.NodeID(1); src <= 32; src++ {
		*r.Put(src) = byte(src)
	}
	src := phys.NodeID(33)
	op := func() {
		if v, ok := r.Get(src - 1); ok {
			*v++
		}
		if _, ok := r.Get(src); !ok {
			*r.Put(src) = 1
		}
		src++
	}
	if allocs := testing.AllocsPerRun(200, op); allocs != 0 {
		t.Fatalf("Get and Put on a full table allocate %.1f allocs/op, want 0", allocs)
	}
}

// TestNameOfZeroAlloc pins the shell's name lookup (ping, traceroute,
// survey, health and stats render node IDs through it): on the
// 400-node grid it indexes the node list by ID, without building or
// sorting the deployment's names.
func TestNameOfZeroAlloc(t *testing.T) {
	tb, err := testbed.Grid(20, 20, 14, testbed.DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.NameOf(400); got != "192.168.1.150" {
		t.Fatalf("NameOf(400) = %q, want 192.168.1.150", got)
	}
	id := phys.NodeID(1)
	lookup := func() {
		_ = tb.NameOf(id)
		id = id%400 + 1
	}
	if allocs := testing.AllocsPerRun(400, lookup); allocs != 0 {
		t.Fatalf("NameOf allocates %.1f allocs/op, want 0", allocs)
	}
}
