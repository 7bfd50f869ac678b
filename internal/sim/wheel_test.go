package sim

import (
	"math"
	"math/rand"
	"testing"
)

// runWheelOracle drives the wheel and RefQueue through the same
// randomized schedule/peek/cancel/pop sequence and asserts the wheel
// pops the identical (when, seq) keys in the identical order, ties,
// cancellations and all.
func runWheelOracle(t *testing.T, seed int64, ops int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var w timerWheel
	var ref RefQueue
	evs := []*Event{nil} // by seq; seqs start at 1
	var now Time
	var live []*Event // cancellable candidates still thought queued
	schedule := func() {
		var delta int64
		switch rng.Intn(6) {
		case 0:
			delta = 0 // same-instant tie, ordered by seq alone
		case 1:
			delta = rng.Int63n(1 << 12) // sub-tick
		case 2:
			delta = rng.Int63n(1 << 22) // level 0-1
		case 3:
			delta = rng.Int63n(1 << 40) // mid levels
		case 4:
			delta = rng.Int63n(1 << 55) // high levels
		case 5: // the top level: anywhere up to the end of the clock
			delta = math.MaxInt64 - int64(now)
			if delta > 0 && rng.Intn(2) == 0 {
				delta = rng.Int63n(delta)
			}
		}
		if delta > math.MaxInt64-int64(now) { // once now nears the end of the clock
			delta = math.MaxInt64 - int64(now)
		}
		ev := &Event{when: now + Time(delta), seq: uint64(len(evs)), queued: true}
		evs = append(evs, ev)
		w.insert(ev)
		ref.Push(ev.when, ev.seq)
		live = append(live, ev)
	}
	// refPop skips cancelled keys, the same lazy cancellation the wheel
	// and Engine.Cancel use; nil when nothing live is pending.
	refPop := func() *Event {
		for ref.Len() > 0 {
			_, seq := ref.Pop()
			if ev := evs[seq]; !ev.stopped {
				return ev
			}
		}
		return nil
	}
	pop := func(what string) bool {
		want := refPop()
		got := w.head()
		if (want == nil) != (got == nil) {
			t.Fatalf("seed %d: %s: wheel head = %v, reference = %v (now=%v)", seed, what, got, want, now)
		}
		if got == nil {
			return false
		}
		w.pop()
		if got != want {
			t.Fatalf("seed %d: %s: wheel popped (when=%v seq=%d), reference (when=%v seq=%d)",
				seed, what, got.when, got.seq, want.when, want.seq)
		}
		if got.when < now {
			t.Fatalf("seed %d: %s went backwards: %v < %v", seed, what, got.when, now)
		}
		now = got.when
		return true
	}
	for i := 0; i < ops; i++ {
		switch r := rng.Intn(10); {
		case r < 4:
			schedule()
		case r < 6: // cancel a random candidate, lazily as Engine.Cancel does
			if len(live) == 0 {
				continue
			}
			j := rng.Intn(len(live))
			ev := live[j]
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
			if ev.queued && !ev.stopped {
				ev.stopped = true
			}
		case r < 7: // peek only: advances the cursor without removing
			w.head()
		default:
			pop("pop")
		}
	}
	for pop("drain") { // the final nil-vs-nil comparison closes the ledger
	}
}

// TestWheelOracle is the differential harness: many seeds,
// each a few thousand mixed operations.
func TestWheelOracle(t *testing.T) {
	for seed := int64(0); seed < 50; seed++ {
		runWheelOracle(t, seed, 4000)
	}
}

// FuzzWheelOracle lets the fuzzer hunt for operation sequences (via the
// seed) that break wheel-vs-reference agreement.
func FuzzWheelOracle(f *testing.F) {
	for _, s := range []int64{0, 1, 42, 1 << 40} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runWheelOracle(t, seed, 600)
	})
}

// TestCancelNotPending pins the Pending() accounting fix: a cancelled
// but unfired event must drop out of the pending count immediately,
// even while its tombstone still sits inside the wheel.
func TestCancelNotPending(t *testing.T) {
	e := NewEngine(1)
	var evs []*Event
	for i := 0; i < 5; i++ {
		evs = append(evs, e.Schedule(Time(i+1)*1000, func() {}))
	}
	if got := e.Pending(); got != 5 {
		t.Fatalf("Pending() = %d before cancel, want 5", got)
	}
	e.Cancel(evs[1])
	e.Cancel(evs[3])
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after two cancels, want 3", got)
	}
	e.Cancel(evs[3]) // double cancel must not double-count
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending() = %d after double cancel, want 3", got)
	}
	if fired := e.Run(); fired != 3 {
		t.Fatalf("Run fired %d events, want 3", fired)
	}
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after run, want 0", got)
	}
	e.Cancel(evs[0]) // cancelling a fired event is a no-op
	if got := e.Pending(); got != 0 {
		t.Fatalf("Pending() = %d after post-fire cancel, want 0", got)
	}
}

// TestFreeListAdaptiveCap checks the free list's bound: it grows to the
// pending high-water mark, so a burst keeps its event structs.
func TestFreeListAdaptiveCap(t *testing.T) {
	e := NewEngine(1)
	const burst = 3 * minFreeList
	for i := 0; i < burst; i++ {
		e.After(Time(i), func() {})
	}
	if e.highWater != burst {
		t.Fatalf("highWater = %d, want %d", e.highWater, burst)
	}
	e.Run()
	if len(e.free) != burst {
		t.Fatalf("adaptive free list kept %d structs, want the high-water %d", len(e.free), burst)
	}
}
