package neighbor

import (
	"encoding/binary"
	"errors"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

func TestObserveInsertsAndSmooths(t *testing.T) {
	tab := NewTable(8)
	e := tab.Observe(2, 100, -10, time.Second)
	if e == nil || e.LQI != 100 || e.RSSI != -10 {
		t.Fatalf("first observation: %+v", e)
	}
	tab.Observe(2, 60, -30, 2*time.Second)
	got, _ := tab.Get(2)
	if got.LQI >= 100 || got.LQI <= 60 {
		t.Fatalf("EWMA LQI = %f, want strictly between 60 and 100", got.LQI)
	}
	if got.RSSI >= -10 || got.RSSI <= -30 {
		t.Fatalf("EWMA RSSI = %f", got.RSSI)
	}
	if got.LastHeard != 2*time.Second {
		t.Fatalf("LastHeard = %v", got.LastHeard)
	}
}

// TestCapacityEviction pins the admission rule of a full table: a
// stranger whose (LQI, RSSI) does not beat the weakest entry's is
// rejected and changes nothing; one that beats it, LQI first, then
// RSSI, takes that entry's place.
func TestCapacityEviction(t *testing.T) {
	tab := NewTable(3)
	tab.Observe(1, 100, -10, time.Second)
	tab.Observe(2, 90, -20, 2*time.Second)
	tab.Observe(3, 95, -5, 3*time.Second)
	before := tab.Entries()
	for _, s := range []struct{ lqi, rssi int }{{80, 0}, {90, -20}, {90, -25}} {
		if e := tab.Observe(4, s.lqi, s.rssi, 10*time.Second); e != nil {
			t.Fatalf("stranger (%d, %d) admitted against weakest (90, -20): %+v", s.lqi, s.rssi, e)
		}
	}
	if got := tab.Entries(); !reflect.DeepEqual(got, before) {
		t.Fatalf("rejected strangers changed the table: %+v, want %+v", got, before)
	}
	// Equal LQI, stronger RSSI beats node 2.
	if tab.Observe(4, 90, -19, 11*time.Second) == nil {
		t.Fatal("stranger with equal LQI and stronger RSSI rejected")
	}
	if _, ok := tab.Get(2); ok {
		t.Fatal("weakest entry not evicted")
	}
	// Node 4 (90, -19) is now the weakest; a higher LQI beats it
	// whatever its RSSI.
	if tab.Observe(5, 91, -90, 12*time.Second) == nil {
		t.Fatal("stranger with higher LQI rejected")
	}
	es := tab.Entries()
	if len(es) != 3 || es[0].ID != 1 || es[1].ID != 3 || es[2].ID != 5 {
		t.Fatalf("entries = %+v, want nodes 1, 3 and 5", es)
	}
}

// TestEvictionTieBreaksByLowestID pins which entry a stranger replaces
// when the weakest entries rank equal: the lowest ID goes, whatever
// order the entries were inserted in.
func TestEvictionTieBreaksByLowestID(t *testing.T) {
	for _, order := range [][]phys.NodeID{{1, 2}, {2, 1}} {
		tab := NewTable(2)
		for _, id := range order {
			tab.Observe(id, 100, -10, time.Second)
		}
		if tab.Observe(3, 101, -10, 2*time.Second) == nil {
			t.Fatal("stronger stranger rejected")
		}
		es := tab.Entries()
		if len(es) != 2 || es[0].ID != 2 || es[1].ID != 3 {
			t.Fatalf("insertion order %v: entries = %+v, want nodes 2 and 3", order, es)
		}
	}
}

func TestBlacklistedEntriesPinned(t *testing.T) {
	tab := NewTable(2)
	tab.Observe(1, 60, -10, time.Second)
	tab.Observe(2, 100, -10, 2*time.Second)
	if err := tab.Blacklist(1, true); err != nil {
		t.Fatal(err)
	}
	// Node 1 is weakest but blacklisted: node 2 is the entry a stranger
	// must beat, and the one it replaces.
	if tab.Observe(3, 80, -10, 3*time.Second) != nil {
		t.Fatal("stranger admitted without beating the weakest unpinned entry")
	}
	if tab.Observe(3, 105, -10, 3*time.Second) == nil {
		t.Fatal("stranger rejected although it beats node 2")
	}
	if _, ok := tab.Get(1); !ok {
		t.Fatal("blacklisted entry evicted")
	}
	if _, ok := tab.Get(2); ok {
		t.Fatal("expected node 2 evicted")
	}
	// All pinned: insertion fails gracefully, however strong the link.
	tab.Blacklist(3, true)
	if tab.Observe(4, 110, 0, 4*time.Second) != nil {
		t.Fatal("insert succeeded with all entries pinned")
	}
}

func TestBlacklistLifecycle(t *testing.T) {
	tab := NewTable(8)
	if err := tab.Blacklist(5, true); !errors.Is(err, ErrUnknownNeighbor) {
		t.Fatalf("err = %v", err)
	}
	tab.Observe(5, 100, -10, time.Second)
	if err := tab.Blacklist(5, true); err != nil {
		t.Fatal(err)
	}
	if !tab.IsBlacklisted(5) {
		t.Fatal("not blacklisted")
	}
	if n := len(usable(tab)); n != 0 {
		t.Fatalf("usable = %d", n)
	}
	if err := tab.Blacklist(5, false); err != nil {
		t.Fatal(err)
	}
	if tab.IsBlacklisted(5) {
		t.Fatal("still blacklisted")
	}
	if n := len(usable(tab)); n != 1 {
		t.Fatalf("usable = %d", n)
	}
}

// usable copies the table's usable view, in walk order.
func usable(t *Table) []Entry {
	var out []Entry
	t.EachUsable(func(e *Entry) { out = append(out, *e) })
	return out
}

// TestEntriesStayInPlace checks that a table holds 48-byte rows at
// capacity from the start, so filling it does not reallocate: the entry
// Observe returned first is still the table's own when the table is
// full, and the usable walk hands out those same entries.
func TestEntriesStayInPlace(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 48 {
		t.Fatalf("Entry is %d bytes, want 48", got)
	}
	tab := NewTable(DefaultCapacity)
	first := tab.Observe(1, 100, -10, time.Second)
	for id := phys.NodeID(2); id <= DefaultCapacity; id++ {
		tab.Observe(id, 100, -10, time.Second)
	}
	if cap(tab.rows) != DefaultCapacity || cap(tab.keys) != DefaultCapacity {
		t.Fatalf("rows/keys capacity %d/%d, want %d", cap(tab.rows), cap(tab.keys), DefaultCapacity)
	}
	if first != tab.lookup(1) {
		t.Fatal("filling the table moved node 1's entry")
	}
	tab.EachUsable(func(e *Entry) {
		if e != tab.lookup(e.ID) {
			t.Fatalf("usable walk handed out a copy of %d", e.ID)
		}
	})
}

func TestEntriesSorted(t *testing.T) {
	tab := NewTable(8)
	for _, id := range []phys.NodeID{5, 1, 9, 3} {
		tab.Observe(id, 100, -10, time.Second)
	}
	es := tab.Entries()
	for i := 1; i < len(es); i++ {
		if es[i].ID <= es[i-1].ID {
			t.Fatalf("entries not sorted: %v", es)
		}
	}
}

func TestObserveBeaconPRR(t *testing.T) {
	tab := NewTable(8)
	tab.ObserveBeacon(2, 1, 100, -10, time.Second)
	e, _ := tab.Get(2)
	if e.PRR != 1 {
		t.Fatalf("initial PRR = %f", e.PRR)
	}
	// Perfect beacon stream keeps PRR at 1.
	for s := uint16(2); s <= 10; s++ {
		tab.ObserveBeacon(2, s, 100, -10, time.Duration(s)*time.Second)
	}
	e, _ = tab.Get(2)
	if e.PRR < 0.99 {
		t.Fatalf("lossless PRR = %f", e.PRR)
	}
	// Now drop every other beacon: PRR must fall noticeably.
	for s := uint16(12); s <= 40; s += 2 {
		tab.ObserveBeacon(2, s, 100, -10, time.Duration(s)*time.Second)
	}
	e, _ = tab.Get(2)
	if e.PRR > 0.8 {
		t.Fatalf("lossy PRR = %f, want < 0.8", e.PRR)
	}
}

func TestObserveBeaconSeqWrap(t *testing.T) {
	tab := NewTable(8)
	tab.ObserveBeacon(3, 0xFFFF, 100, -10, time.Second)
	tab.ObserveBeacon(3, 0, 100, -10, 2*time.Second)
	e, _ := tab.Get(3)
	if e.PRR < 0.99 {
		t.Fatalf("wraparound treated as loss: PRR = %f", e.PRR)
	}
}

func TestExpire(t *testing.T) {
	tab := NewTable(8)
	tab.Observe(1, 100, -10, time.Second)
	tab.Observe(2, 100, -10, 10*time.Second)
	tab.Observe(3, 100, -10, time.Second)
	tab.Blacklist(3, true)
	n := tab.Expire(5 * time.Second)
	if n != 1 {
		t.Fatalf("expired %d, want 1", n)
	}
	if _, ok := tab.Get(1); ok {
		t.Fatal("stale entry survived")
	}
	if _, ok := tab.Get(3); !ok {
		t.Fatal("blacklisted pin expired")
	}
}

func TestRemove(t *testing.T) {
	tab := NewTable(8)
	tab.Observe(1, 100, -10, time.Second)
	tab.Remove(1)
	if tab.Len() != 0 {
		t.Fatal("remove failed")
	}
	tab.Remove(1) // idempotent
}

func TestDefaultCapacity(t *testing.T) {
	for _, c := range []int{0, -5} {
		tab := NewTable(c)
		for id := phys.NodeID(1); id <= DefaultCapacity+4; id++ {
			tab.Observe(id, 100, -60, 0)
		}
		if tab.Len() != DefaultCapacity {
			t.Fatalf("NewTable(%d) holds %d entries, want %d", c, tab.Len(), DefaultCapacity)
		}
	}
}

func TestTableInvariantsProperty(t *testing.T) {
	// Any sequence of observations keeps Len <= cap and every entry's
	// LQI within the CC2420 range when observations are in range.
	prop := func(ops []uint16) bool {
		tab := NewTable(5)
		now := sim.Time(0)
		for _, op := range ops {
			now += time.Millisecond
			id := phys.NodeID(op % 20)
			lqi := 50 + int(op%61)
			tab.Observe(id, lqi, -int(op%60), now)
			if tab.Len() > 5 {
				return false
			}
		}
		for _, e := range tab.Entries() {
			if e.LQI < 50 || e.LQI > 110 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// runTableModel drives the table and a plain slice model with the same
// observations, blacklisting, acks, removals and expiries, and requires
// the same admission verdict for every observation and identical views
// and usable walks after every step: the compact key index, the cached
// weakest entry and the row reuse on eviction and removal must not
// change which entries survive or what they hold. Each op picks the
// operation (low 3 bits), the neighbor (bits 8-11) and the link (bits
// 16-22, a few values each, so ranks tie).
func runTableModel(t *testing.T, ops []uint32) {
	const capacity = 6
	tab := NewTable(capacity)
	var ref []Entry // the model: unordered, finds the weakest by scanning
	now := sim.Time(0)
	for step, op := range ops {
		now += sim.Time(op>>3%3) * time.Millisecond
		id := phys.NodeID(op>>8%12 + 1)
		at := slices.IndexFunc(ref, func(e Entry) bool { return e.ID == id })
		switch op % 8 {
		case 0, 1, 2, 3:
			lqi, rssi := 50+10*int(op>>16%7), -10*int(op>>20%4)
			admitted := tab.Observe(id, lqi, rssi, now) != nil
			want := true
			switch {
			case at >= 0:
				e := &ref[at]
				e.LQI += ewmaAlpha * (float64(lqi) - e.LQI)
				e.RSSI += ewmaAlpha * (float64(rssi) - e.RSSI)
				e.LastHeard = now
			case len(ref) < capacity:
				ref = append(ref, Entry{ID: id, LQI: float64(lqi), RSSI: float64(rssi),
					PRR: 1, Delivery: 1, LastHeard: now})
			default:
				v := -1
				for i, e := range ref {
					if !e.Blacklisted && (v < 0 || e.LQI < ref[v].LQI || e.LQI == ref[v].LQI &&
						(e.RSSI < ref[v].RSSI || e.RSSI == ref[v].RSSI && e.ID < ref[v].ID)) {
						v = i
					}
				}
				l, r := float64(lqi), float64(rssi)
				if want = v >= 0 && (l > ref[v].LQI || l == ref[v].LQI && r > ref[v].RSSI); want {
					ref[v] = Entry{ID: id, LQI: l, RSSI: r, PRR: 1, Delivery: 1, LastHeard: now}
				}
			}
			if admitted != want {
				t.Fatalf("step %d: Observe(%d, %d, %d) admitted %v, model %v", step, id, lqi, rssi, admitted, want)
			}
		case 4:
			if at >= 0 {
				on := !ref[at].Blacklisted
				ref[at].Blacklisted = on
				if err := tab.Blacklist(id, on); err != nil {
					t.Fatal(err)
				}
			}
		case 5:
			tab.ObserveTxResult(id, true, now)
			if at >= 0 {
				ref[at].LastHeard = now
			}
		case 6:
			tab.Remove(id)
			if at >= 0 {
				ref = slices.Delete(ref, at, at+1)
			}
		case 7:
			cutoff := now - 5*time.Millisecond
			n := tab.Expire(cutoff)
			before := len(ref)
			ref = slices.DeleteFunc(ref, func(e Entry) bool { return !e.Blacklisted && e.LastHeard < cutoff })
			if n != before-len(ref) {
				t.Fatalf("step %d: Expire dropped %d, model %d", step, n, before-len(ref))
			}
		}
		want := slices.Clone(ref)
		slices.SortFunc(want, func(a, b Entry) int { return int(a.ID) - int(b.ID) })
		if got := tab.Entries(); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (op %d): table %+v, model %+v", step, op%8, got, want)
		}
		want = slices.DeleteFunc(want, func(e Entry) bool { return e.Blacklisted })
		if got := usable(tab); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d (op %d): usable walk %+v, model %+v", step, op%8, got, want)
		}
	}
}

// TestTableMatchesReference runs the model comparison on random
// operation streams.
func TestTableMatchesReference(t *testing.T) {
	prop := func(ops []uint32) bool {
		runTableModel(t, ops)
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// FuzzTable checks the table against the slice model; each four bytes
// of input are one op. The seeds run under plain `go test`.
func FuzzTable(f *testing.F) {
	for _, seed := range []uint32{1, 7, 42, 1009} {
		ops := make([]byte, 1200)
		x := seed
		for i := range ops {
			x = x*1664525 + 1013904223
			ops[i] = byte(x >> 24)
		}
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := make([]uint32, len(data)/4)
		for i := range ops {
			ops[i] = binary.LittleEndian.Uint32(data[4*i:])
		}
		runTableModel(t, ops)
	})
}
