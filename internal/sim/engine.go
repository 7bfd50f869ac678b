// Package sim provides the discrete-event simulation kernel on which the
// whole LiteView reproduction runs. Every other subsystem — radio medium,
// MAC, LiteOS threads, LiteView commands — executes on the virtual clock
// owned by an Engine, so a scenario is fully determined by its topology,
// its seed, and its command script.
//
// Time is modelled as a time.Duration offset from the simulation epoch
// (t = 0). Events scheduled for the same instant fire in scheduling order
// (a monotonically increasing sequence number breaks ties), which keeps
// runs reproducible across machines.
//
// Engines are single-threaded by design, but fully self-contained: two
// engines share no mutable state, so independent simulations may run on
// concurrent goroutines (one engine per goroutine) — the parallel
// experiment runner in internal/bench relies on this.
package sim

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Time is a virtual timestamp: the offset from the simulation epoch.
type Time = time.Duration

// Event is a scheduled callback. Fields are private to the engine; events
// are created via Engine.Schedule (which returns a cancellable handle) or
// Engine.After / Engine.AfterArg (handle-free, recycled through the
// engine's free list).
type Event struct {
	when Time
	seq  uint64
	fn   func()
	// fnArg/arg is the single-argument fast path used by AfterArg: a
	// method value bound once at construction plus a per-fire argument,
	// so hot callers need no per-event closure. When fnArg is set it is
	// invoked instead of fn.
	fnArg func(any)
	arg   any
	// next chains events within a wheel slot (intrusive list; see
	// wheel.go). nil outside a slot.
	next    *Event
	queued  bool // currently resident in the wheel (a slot or cur)
	stopped bool
	// pooled marks events scheduled through the handle-free After path.
	// No caller holds a reference to a pooled event, so the engine may
	// recycle its struct the moment it leaves the queue. Events with
	// handles are never recycled: a caller may Cancel one long after it
	// fired, and reuse would redirect that Cancel at an unrelated event.
	pooled bool
}

// minFreeList is the free list's floor: the engine always keeps up to
// this many recycled event structs regardless of load. Above it the
// bound tracks the pending-event high-water mark, so a 10k-node burst
// keeps its event structs instead of churning the allocator every cycle.
const minFreeList = 1024

// Engine is a single-threaded discrete-event simulator. It is not safe
// for concurrent use; all model code runs inside event callbacks on the
// engine's own (virtual) timeline. Distinct engines are fully isolated
// and may run concurrently with one another.
type Engine struct {
	now     Time
	wheel   timerWheel
	seq     uint64
	fired   uint64
	stopped bool
	rng     *Rand
	// free recycles the structs of fired pooled events. Recycling is
	// invisible to the timeline: a reused struct gets a fresh seq, so
	// ordering is exactly what freshly allocated events would produce.
	free []*Event
	// pending counts live (not fired, not cancelled) queued events;
	// highWater is its maximum so far and sizes the free list.
	pending   int
	highWater int
}

// ErrPastEvent is wrapped in the panic raised when an event is scheduled
// before the current virtual time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// NewEngine returns an engine whose clock reads zero and whose root RNG
// is seeded with seed.
func NewEngine(seed uint64) *Engine {
	return &Engine{rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's root random stream. Model components should
// usually Fork their own sub-stream so that adding a component does not
// perturb the draws seen by others.
func (e *Engine) Rand() *Rand { return e.rng }

// Pending reports the number of events still queued. Cancelled events
// are not pending even while their tombstones await collection inside
// the wheel.
func (e *Engine) Pending() int { return e.pending }

// Fired reports how many events have executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// enqueue files a callback at now+delay into the wheel, reusing a
// recycled event struct when available, and maintains the pending
// accounting. It panics with ErrPastEvent when the time lies before now
// (a negative delay, or one that overflows the clock) and on a nil
// callback.
func (e *Engine) enqueue(delay Time, fn func(), fnArg func(any), arg any, pooled bool) *Event {
	t := e.now + delay
	if t < e.now {
		panic(fmt.Errorf("%w: delay %v", ErrPastEvent, delay))
	}
	if fn == nil && fnArg == nil {
		panic(errors.New("sim: nil event callback"))
	}
	e.seq++
	var ev *Event
	if n := len(e.free); n > 0 {
		ev = e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		ev.stopped = false
	} else {
		ev = new(Event)
	}
	ev.when, ev.seq, ev.fn, ev.fnArg, ev.arg, ev.pooled = t, e.seq, fn, fnArg, arg, pooled
	ev.queued = true
	e.wheel.insert(ev)
	e.pending++
	if e.pending > e.highWater {
		e.highWater = e.pending
	}
	return ev
}

// recycle returns a pooled event's struct to the free list.
func (e *Engine) recycle(ev *Event) {
	if len(e.free) < max(e.highWater, minFreeList) {
		ev.fn = nil
		ev.fnArg = nil
		ev.arg = nil
		e.free = append(e.free, ev)
	}
}

// Schedule queues fn to run after delay and returns a handle for
// Cancel. A zero delay runs fn at the current time, after events
// already queued for this instant. It panics with ErrPastEvent on a
// negative delay and on a nil fn: model code schedules internally
// computed delays that are non-negative by construction.
func (e *Engine) Schedule(delay Time, fn func()) *Event {
	return e.enqueue(delay, fn, nil, nil, false)
}

// After queues fn to run after delay without returning a handle: the
// event cannot be cancelled, and its struct is recycled through the
// engine's free list once it fires. This is the allocation-free fast
// path for the dominant fire-and-forget pattern (frame deliveries, MAC
// backoffs, self-rescheduling tickers). Like Schedule it panics on a
// negative delay or nil fn.
func (e *Engine) After(delay Time, fn func()) {
	e.enqueue(delay, fn, nil, nil, true)
}

// AfterArg is After for callbacks that need one argument: fn is
// typically a method value bound once at construction and arg the
// per-fire payload, so hot paths (frame deliveries carrying their
// transmission) schedule without allocating a closure. Storing a
// pointer in arg does not allocate. The same rules as After apply:
// handle-free, recycled after firing, panics on a negative delay or
// nil fn.
func (e *Engine) AfterArg(delay Time, fn func(any), arg any) {
	e.enqueue(delay, nil, fn, arg, true)
}

// Cancel removes a pending event. Cancelling an already-fired or
// already-cancelled event is a no-op. Cancellation is lazy: the event
// stops counting as pending immediately, while its struct is discarded
// when the wheel next touches it.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil {
		return
	}
	if ev.stopped || !ev.queued {
		ev.stopped = true
		return
	}
	ev.stopped = true
	e.pending--
}

// Stop makes the current Run/RunUntil call return once the executing
// event completes.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events until the queue drains or Stop is called. It
// returns the number of events fired by this call.
func (e *Engine) Run() uint64 {
	return e.RunUntil(Time(math.MaxInt64))
}

// RunUntil executes events with timestamps <= deadline. The clock is left
// at the last fired event's time (or at deadline if the queue holds only
// later events, so that successive RunUntil calls advance monotonically).
func (e *Engine) RunUntil(deadline Time) uint64 {
	e.stopped = false
	var fired uint64
	for !e.stopped {
		next := e.wheel.head()
		if next == nil {
			break
		}
		if next.when > deadline {
			if deadline > e.now && deadline != Time(math.MaxInt64) {
				e.now = deadline
			}
			return fired
		}
		e.fire(e.wheel.pop())
		fired++
	}
	if deadline > e.now && deadline != Time(math.MaxInt64) && !e.stopped {
		e.now = deadline
	}
	return fired
}

// fire advances the clock to ev and runs its callback.
func (e *Engine) fire(ev *Event) {
	e.pending--
	e.now = ev.when
	e.fired++
	fn, fnArg, arg := ev.fn, ev.fnArg, ev.arg
	// Recycle before firing: a callback that reschedules itself (the
	// ticker pattern) reuses the struct it just vacated.
	if ev.pooled {
		e.recycle(ev)
	}
	if fnArg != nil {
		fnArg(arg)
	} else {
		fn()
	}
}

// NextEventTime reports the timestamp of the earliest pending event.
func (e *Engine) NextEventTime() (Time, bool) {
	next := e.wheel.head()
	if next == nil {
		return 0, false
	}
	return next.when, true
}

// Step fires exactly one event if any is pending and reports whether one
// fired.
func (e *Engine) Step() bool {
	next := e.wheel.head()
	if next == nil {
		return false
	}
	e.fire(e.wheel.pop())
	return true
}
