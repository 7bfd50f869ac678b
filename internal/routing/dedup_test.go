package routing_test

import (
	"testing"

	"liteview/internal/medium"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/stack"
)

// TestRouterDropsDuplicates pins routed-packet duplicate suppression:
// a second copy of (origin, id) counts one DroppedDup, and the filter
// remembers the 128 newest keys, evicting the oldest-inserted first.
func TestRouterDropsDuplicates(t *testing.T) {
	eng, st, table := rawNode(t, 1, 1, 0)
	r, err := routing.NewFlooding(eng, st, table, routing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Subscribe(100, func(*stack.Packet, phys.NodeID, medium.RxInfo) {}); err != nil {
		t.Fatal(err)
	}
	recv := func(id uint16) { routing.Receive(r, 7, 1, 7, id, 100, []byte("x")) }
	check := func(when string, delivered, dups uint64) {
		t.Helper()
		if s := r.Stats(); s.Delivered != delivered || s.DroppedDup != dups {
			t.Fatalf("%s: Delivered=%d DroppedDup=%d, want %d and %d", when, s.Delivered, s.DroppedDup, delivered, dups)
		}
	}
	recv(1)
	recv(1)
	check("packet received twice", 1, 1)
	for id := uint16(2); id < 2+128; id++ {
		recv(id)
	}
	check("128 newer packets", 129, 1)
	recv(1)
	check("oldest key after 128 newer ones", 130, 1)
	// Re-accepting id 1 evicted id 2, the oldest-inserted; id 3 stays.
	recv(3)
	check("id 3 repeated", 130, 2)
	recv(2)
	check("evicted id 2", 131, 2)
}

// TestOnDemandDropsDuplicateRREQ pins route-request flood dedup: a copy
// of a request already handled installs no route, and the filter
// remembers the 128 newest (requester, reqID) keys.
func TestOnDemandDropsDuplicateRREQ(t *testing.T) {
	eng, st, table := rawNode(t, 1, 1, 0)
	r, err := routing.NewOnDemand(eng, st, table, routing.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	table.Observe(2, 110, -60, 0)
	table.Observe(3, 110, -60, 0)
	rreq := func(requester phys.NodeID, reqID uint16, from phys.NodeID, hops byte) {
		routing.Receive(r, requester, phys.Broadcast, from, 0, 0, routing.RREQ(reqID, requester, 9, hops))
	}
	via := func(when string, want phys.NodeID) {
		t.Helper()
		routes, _ := routing.RouteTable(r)
		if routes[7] != want {
			t.Fatalf("%s: route to 7 via %d, want via %d", when, routes[7], want)
		}
	}
	rreq(7, 1, 2, 3)
	via("first copy", 2)
	// A shorter copy through 3 would win the reverse route if it were
	// handled.
	rreq(7, 1, 3, 0)
	via("duplicate copy", 2)
	// 128 newer requests that go no further (hop count at the TTL).
	for id := uint16(1); id <= 128; id++ {
		rreq(8, id, 2, 15)
	}
	rreq(7, 1, 3, 0)
	via("oldest key after 128 newer ones", 3)
}
