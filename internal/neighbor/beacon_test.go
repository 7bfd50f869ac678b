package neighbor

import (
	"fmt"
	"testing"
	"time"

	"liteview/internal/mac"
	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/stack"
)

type benv struct {
	eng *sim.Engine
	med *medium.Medium
}

func newBenv(seed uint64) *benv {
	eng := sim.NewEngine(seed)
	model := phys.DefaultModel(seed)
	model.ShadowSigma = 0
	model.AsymSigma = 0
	return &benv{eng: eng, med: medium.New(eng, model)}
}

func (e *benv) node(t *testing.T, id phys.NodeID, x float64) (*stack.Stack, *Service) {
	t.Helper()
	rad, err := radio.New(17)
	if err != nil {
		t.Fatal(err)
	}
	var st *stack.Stack
	m, err := mac.New(e.eng, e.med, rad, id, phys.Position{X: x}, mac.DefaultConfig(),
		func(f mac.Frame, info medium.RxInfo) { st.OnFrame(f, info) })
	if err != nil {
		t.Fatal(err)
	}
	st = stack.New(e.eng, m)
	svc, err := NewService(e.eng, st, NewTable(0), fmt.Sprintf("192.168.0.%d", id))
	if err != nil {
		t.Fatal(err)
	}
	return st, svc
}

// beaconsSent counts the beacons s's node put on the air.
func beaconsSent(s *Service) uint64 { return s.st.MAC().Stats().SentBeacon }

func TestBeaconDiscovery(t *testing.T) {
	e := newBenv(1)
	_, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5)
	sa.Start()
	sb.Start()
	e.eng.RunUntil(10 * time.Second)
	ea, ok := sa.Table().Get(2)
	if !ok {
		t.Fatal("node 1 did not discover node 2")
	}
	if ea.LQI < 100 {
		t.Fatalf("LQI = %f at 5m", ea.LQI)
	}
	if ea.PRR < 0.9 {
		t.Fatalf("PRR = %f on clean link", ea.PRR)
	}
	if _, ok := sb.Table().Get(1); !ok {
		t.Fatal("node 2 did not discover node 1")
	}
	if beaconsSent(sa) < 3 {
		t.Fatalf("beacons sent = %d over 10 s at 2 s period", beaconsSent(sa))
	}
}

func TestOutOfRangeNotDiscovered(t *testing.T) {
	e := newBenv(2)
	_, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5000)
	sa.Start()
	sb.Start()
	e.eng.RunUntil(10 * time.Second)
	if _, ok := sa.Table().Get(2); ok {
		t.Fatal("discovered a node 5 km away")
	}
}

func TestSetPeriod(t *testing.T) {
	e := newBenv(3)
	_, sa := e.node(t, 1, 0)
	e.node(t, 2, 5)
	if err := sa.SetPeriod(0); err == nil {
		t.Fatal("zero period accepted")
	}
	if err := sa.SetPeriod(100 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	sa.Start()
	e.eng.RunUntil(5 * time.Second)
	// ~50 beacons at 100 ms over 5 s (minus start jitter).
	if beaconsSent(sa) < 30 {
		t.Fatalf("beacons sent = %d, want ≈ 49", beaconsSent(sa))
	}
	if sa.Period() != 100*time.Millisecond {
		t.Fatalf("period = %v", sa.Period())
	}
}

func TestStopHaltsBeaconing(t *testing.T) {
	e := newBenv(4)
	_, sa := e.node(t, 1, 0)
	sa.Start()
	if !sa.Running() {
		t.Fatal("not running after Start")
	}
	e.eng.RunUntil(5 * time.Second)
	sent := beaconsSent(sa)
	sa.Stop()
	if sa.Running() {
		t.Fatal("running after Stop")
	}
	e.eng.RunUntil(20 * time.Second)
	if beaconsSent(sa) != sent {
		t.Fatal("beacons sent after Stop")
	}
	// Restart works.
	sa.Start()
	e.eng.RunUntil(30 * time.Second)
	if beaconsSent(sa) <= sent {
		t.Fatal("no beacons after restart")
	}
}

func TestDoubleStartSingleStream(t *testing.T) {
	e := newBenv(5)
	_, sa := e.node(t, 1, 0)
	sa.SetPeriod(time.Second)
	sa.Start()
	sa.Start() // must not double the rate
	e.eng.RunUntil(10 * time.Second)
	if beaconsSent(sa) > 11 {
		t.Fatalf("beacons sent = %d; double Start doubled the stream", beaconsSent(sa))
	}
}

func TestTableLearnsFromDataTrafficToo(t *testing.T) {
	e := newBenv(6)
	sta, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5)
	_ = sb
	// No beaconing at all: node 2's table must still learn node 1 from
	// a data frame (the sniffer path).
	p := &stack.Packet{Port: 50, Origin: 1, Dst: 2, Data: []byte("x")}
	if err := sta.Send(p, 2, mac.TypeData, nil); err != nil {
		t.Fatal(err)
	}
	e.eng.Run()
	tb := sb.Table()
	if _, ok := tb.Get(1); !ok {
		t.Fatal("data traffic did not populate the neighbor table")
	}
	_ = sa
}

func TestStaleNeighborsExpire(t *testing.T) {
	e := newBenv(7)
	_, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5)
	sa.Start()
	sb.Start()
	e.eng.RunUntil(10 * time.Second)
	if _, ok := sa.Table().Get(2); !ok {
		t.Fatal("discovery failed")
	}
	// Node 2 dies (stops beaconing and transmitting entirely).
	sb.Stop()
	e.eng.RunUntil(60 * time.Second)
	if _, ok := sa.Table().Get(2); ok {
		t.Fatal("silent neighbor never expired from the kernel table")
	}
}

func TestBlacklistedNeighborsSurviveExpiry(t *testing.T) {
	e := newBenv(8)
	_, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5)
	sa.Start()
	sb.Start()
	e.eng.RunUntil(10 * time.Second)
	if err := sa.Table().Blacklist(2, true); err != nil {
		t.Fatal(err)
	}
	sb.Stop()
	e.eng.RunUntil(120 * time.Second)
	if _, ok := sa.Table().Get(2); !ok {
		t.Fatal("blacklisted pin expired")
	}
}

func TestStoppedServiceDoesNotExpire(t *testing.T) {
	// The F6 workflow freezes tables by stopping the service: no
	// housekeeping may run while stopped.
	e := newBenv(9)
	_, sa := e.node(t, 1, 0)
	_, sb := e.node(t, 2, 5)
	sa.Start()
	sb.Start()
	e.eng.RunUntil(10 * time.Second)
	sa.Stop()
	sb.Stop()
	e.eng.RunUntil(300 * time.Second)
	if _, ok := sa.Table().Get(2); !ok {
		t.Fatal("frozen table expired entries")
	}
}
