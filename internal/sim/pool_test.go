package sim

import (
	"testing"
	"time"
)

// TestAfterOrdering checks that handle-free events interleave with
// handled events in strict (when, scheduling-order) order.
func TestAfterOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.After(2*time.Millisecond, func() { got = append(got, 2) })
	e.Schedule(time.Millisecond, func() { got = append(got, 1) })
	e.After(time.Millisecond, func() { got = append(got, 11) }) // same instant, later seq
	e.After(3*time.Millisecond, func() { got = append(got, 3) })
	e.Run()
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestAfterRecycling drives the ticker pattern long enough to cycle the
// free list many times over and checks nothing is lost or reordered.
func TestAfterRecycling(t *testing.T) {
	e := NewEngine(1)
	const rounds = 10000
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < rounds {
			e.After(time.Millisecond, tick)
		}
	}
	e.After(time.Millisecond, tick)
	e.Run()
	if n != rounds {
		t.Fatalf("ticks = %d, want %d", n, rounds)
	}
	if e.Now() != rounds*time.Millisecond {
		t.Fatalf("Now = %v, want %v", e.Now(), rounds*time.Millisecond)
	}
	if e.Fired() != rounds {
		t.Fatalf("Fired = %d, want %d", e.Fired(), rounds)
	}
}

// TestHandleEventsNeverRecycled asserts that a fired handle event's
// struct stays out of the free list: cancelling it long after the fact
// must not disturb a pooled event that fires at the same instant.
func TestHandleEventsNeverRecycled(t *testing.T) {
	e := NewEngine(1)
	fired := 0
	ev := e.Schedule(time.Millisecond, func() { fired++ })
	e.Run()
	// Refill the queue; if ev's struct had been recycled this After
	// could be sitting in the same struct the stale Cancel targets.
	e.After(time.Millisecond, func() { fired++ })
	e.Cancel(ev) // stale cancel on an already-fired handle: must be a no-op
	e.Run()
	if fired != 2 {
		t.Fatalf("fired = %d, want 2 (stale Cancel hit a live event)", fired)
	}
}

// TestAfterPanicsOnBadArgs pins the contract all three scheduling calls share.
func TestAfterPanicsOnBadArgs(t *testing.T) {
	e := NewEngine(1)
	expectPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		fn()
	}
	expectPanic("negative delay", func() { e.After(-time.Nanosecond, func() {}) })
	expectPanic("nil callback", func() { e.After(time.Second, nil) })
	expectPanic("nil Schedule callback", func() { e.Schedule(time.Second, nil) })
	expectPanic("nil AfterArg callback", func() { e.AfterArg(time.Second, nil, nil) })
}

// TestMixedCancelDeterminism replays a workload mixing pooled events,
// handle events, and cancellations, and checks that two engines with the
// same seed produce identical firing sequences.
func TestMixedCancelDeterminism(t *testing.T) {
	workload := func() []int {
		e := NewEngine(7)
		var got []int
		for i := 0; i < 200; i++ {
			i := i
			d := Time(e.Rand().Intn(50)) * time.Millisecond
			if i%3 == 0 {
				ev := e.Schedule(d, func() { got = append(got, i) })
				if i%6 == 0 {
					e.Cancel(ev)
				}
			} else {
				e.After(d, func() { got = append(got, i) })
			}
		}
		e.Run()
		return got
	}
	a, b := workload(), workload()
	if len(a) != len(b) {
		t.Fatalf("runs fired %d vs %d events", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
