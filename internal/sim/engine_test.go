package sim

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.Schedule(3*time.Millisecond, func() { got = append(got, 3) })
	e.Schedule(1*time.Millisecond, func() { got = append(got, 1) })
	e.Schedule(2*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Now = %v, want 3ms", e.Now())
	}
}

func TestSameInstantFIFO(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Millisecond, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var ticks int
	var tick func()
	tick = func() {
		ticks++
		if ticks < 5 {
			e.Schedule(time.Second, tick)
		}
	}
	e.Schedule(time.Second, tick)
	e.Run()
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
	if e.Now() != 5*time.Second {
		t.Fatalf("Now = %v, want 5s", e.Now())
	}
}

// TestPastEventRejected checks that all three scheduling calls panic
// with ErrPastEvent on a time before now: a negative delay, or a delay
// that overflows the clock.
func TestPastEventRejected(t *testing.T) {
	e := NewEngine(1)
	e.Schedule(time.Second, func() {})
	e.Run()
	for _, d := range []Time{-time.Nanosecond, -time.Second, math.MaxInt64} {
		for name, schedule := range map[string]func(){
			"Schedule": func() { e.Schedule(d, func() {}) },
			"After":    func() { e.After(d, func() {}) },
			"AfterArg": func() { e.AfterArg(d, func(any) {}, nil) },
		} {
			func() {
				defer func() {
					err, _ := recover().(error)
					if !errors.Is(err, ErrPastEvent) {
						t.Fatalf("%s(%v): recovered %v, want ErrPastEvent", name, d, err)
					}
				}()
				schedule()
			}()
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("rejected events left %d pending", e.Pending())
	}
}

// TestEndOfClock fires events scheduled at the last representable
// instant through Run: the wheel spans the whole Time range, so the top
// level must file, cascade and order them like any other.
func TestEndOfClock(t *testing.T) {
	e := NewEngine(1)
	var got []int
	end := Time(math.MaxInt64)
	// The near event goes first: it pins the cursor, so the later two
	// are filed into the top level rather than straight into cur.
	e.Schedule(time.Millisecond, func() { got = append(got, 1) })
	e.After(end, func() {
		got = append(got, 3)
		e.After(0, func() { got = append(got, 4) }) // now + 0 is still on the clock
	})
	e.Schedule(end-1, func() { got = append(got, 2) })
	if fired := e.Run(); fired != 4 {
		t.Fatalf("Run fired %d events, want 4", fired)
	}
	if len(got) != 4 || got[0] != 1 || got[1] != 2 || got[2] != 3 || got[3] != 4 {
		t.Fatalf("order = %v, want [1 2 3 4]", got)
	}
	if e.Now() != end {
		t.Fatalf("Now = %v, want %v", e.Now(), end)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.stopped {
		t.Fatal("event not marked stopped")
	}
	// Double cancel and nil cancel are safe.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 1; i <= 4; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, func() { got = append(got, i) })
	}
	n := e.RunUntil(2500 * time.Millisecond)
	if n != 2 || len(got) != 2 {
		t.Fatalf("fired %d events (%v), want 2", n, got)
	}
	if e.Now() != 2500*time.Millisecond {
		t.Fatalf("clock did not advance to deadline: %v", e.Now())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("remaining events did not fire: %v", got)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	var count int
	for i := 0; i < 10; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {
			count++
			if count == 3 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("pending = %d, want 7", e.Pending())
	}
}

func TestStep(t *testing.T) {
	e := NewEngine(1)
	var count int
	e.Schedule(time.Millisecond, func() { count++ })
	e.Schedule(2*time.Millisecond, func() { count++ })
	if !e.Step() || count != 1 {
		t.Fatalf("first step: count=%d", count)
	}
	if !e.Step() || count != 2 {
		t.Fatalf("second step: count=%d", count)
	}
	if e.Step() {
		t.Fatal("step on empty queue reported an event")
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine(1)
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Millisecond, func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}
