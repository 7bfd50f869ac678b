package liteos

import (
	"fmt"
	"testing"
	"time"
)

// TestEventLogRingOrder drives the ring through several full
// wrap-arounds and checks that Entries is always the last cap appends,
// oldest first.
func TestEventLogRingOrder(t *testing.T) {
	const cap = 5
	l := NewEventLog(cap)
	l.Enable()
	for i := 0; i < 23; i++ {
		l.Append(time.Duration(i)*time.Millisecond, "seq", fmt.Sprintf("e%d", i))
	}
	es := l.Entries()
	if len(es) != cap {
		t.Fatalf("len = %d, want %d", len(es), cap)
	}
	for i, e := range es {
		want := fmt.Sprintf("e%d", 23-cap+i)
		if e.Msg != want {
			t.Fatalf("entry %d = %q, want %q", i, e.Msg, want)
		}
	}
	if l.Dropped() != 23-cap {
		t.Fatalf("dropped = %d, want %d", l.Dropped(), 23-cap)
	}
	if l.Len() != cap {
		t.Fatalf("Len = %d", l.Len())
	}
}

// TestEventLogClearResetsRing checks that Clear rewinds the ring to a
// fresh state and appends restart from the beginning.
func TestEventLogClearResetsRing(t *testing.T) {
	l := NewEventLog(3)
	l.Enable()
	for i := 0; i < 7; i++ {
		l.Append(time.Duration(i), "t", "x")
	}
	l.Clear()
	if l.Len() != 0 || l.Dropped() != 0 {
		t.Fatalf("after clear: len=%d dropped=%d", l.Len(), l.Dropped())
	}
	l.Append(time.Second, "t", "first")
	es := l.Entries()
	if len(es) != 1 || es[0].Msg != "first" {
		t.Fatalf("entries after clear = %v", es)
	}
}

// TestEventLogMemoryFlat is the chaos test for the bounded log: a node
// that logs forever must not grow. The ring's backing array is
// allocated once, so appends after the ring is warm allocate nothing.
func TestEventLogMemoryFlat(t *testing.T) {
	l := NewEventLog(64)
	l.Enable()
	msgs := [4]string{"a", "b", "c", "d"} // pre-built: measure the ring, not fmt
	for i := 0; i < 128; i++ {            // warm the ring past a wrap
		l.Append(time.Duration(i), "warm", msgs[i%4])
	}
	avg := testing.AllocsPerRun(100000, func() {
		l.Append(time.Millisecond, "chaos", msgs[0])
	})
	if avg != 0 {
		t.Fatalf("Append allocates %.2f allocs/op after warm-up, want 0", avg)
	}
	if l.Len() != 64 {
		t.Fatalf("len = %d, want 64", l.Len())
	}
	if got := l.Dropped(); got < 100000 {
		t.Fatalf("dropped = %d, want >= 100000", got)
	}
}

// TestEventLogCapConfig checks a node's kernel event log holds 64
// entries.
func TestEventLogCapConfig(t *testing.T) {
	if _, d := testNode(t, 2, 0); kept(d.Log()) != 64 {
		t.Fatalf("node log keeps %d entries, want 64", kept(d.Log()))
	}
}

// kept enables l, appends past any capacity, and returns how many
// entries the ring keeps.
func kept(l *EventLog) int {
	l.Enable()
	for i := 0; i < 1000; i++ {
		l.Append(0, "t", "e")
	}
	return l.Len()
}

// TestEventLogAllocatesOnEnable checks that a log nobody enables holds
// no ring, and that the first Enable allocates it at the configured
// capacity.
func TestEventLogAllocatesOnEnable(t *testing.T) {
	l := NewEventLog(8)
	l.Append(time.Second, "t", "dropped while disabled")
	if l.buf != nil {
		t.Fatalf("disabled log: buf len %d, want no buffer", len(l.buf))
	}
	l.Enable()
	l.Disable()
	l.Enable()
	if len(l.buf) != 8 {
		t.Fatalf("enabled log: buf len %d, want 8", len(l.buf))
	}
	l.Append(time.Second, "t", "kept")
	if es := l.Entries(); len(es) != 1 || es[0].Msg != "kept" {
		t.Fatalf("entries = %v", es)
	}
}
