package sim

import "math/bits"

// The engine's pending-event structure is a hierarchical timer wheel
// (Varghese & Lauck) adapted to a discrete-event simulator: instead of
// advancing tick by tick on a real clock, the cursor jumps straight to
// the next occupied slot, so an empty stretch of virtual time costs a
// bitmap scan, not a walk.
//
// Layout. Virtual time is bucketed into 2^tickBits-nanosecond ticks.
// Level 0 holds one slot per tick across a 64-tick window anchored at
// the cursor; each higher level widens the window 64× (a level-L slot
// spans 64^L ticks). Times are non-negative int64 nanoseconds, so a
// tick fits in 63-tickBits = 47 bits, and eight 6-bit levels
// (tickBits + 8·6 = 64 bits) cover every representable Time: there is
// no horizon and nothing waits outside the wheel. A uint64 occupancy
// bitmap per level makes "earliest non-empty slot" one TrailingZeros64.
//
// Slot residency is the classic radix trick: an event's level is the
// highest bit position where its tick differs from the cursor's
// (xor-based), its slot the tick's digit at that level. Advancing the
// cursor into a level-L slot zeroes that xor digit for every event in
// the slot, so a cascade strictly descends — each event is re-filed at
// most wheelLevels times over its life, and pop stays amortized O(1).
//
// Ordering. The determinism contract (DESIGN §10) requires pops in
// exact (when, seq) order, which raw slots do not give: a slot mixes
// sub-tick timestamps and seqs from different scheduling eras. The
// wheel therefore never pops from a slot directly; the imminent events
// — everything at or below the cursor's tick — live in cur, a slice
// kept sorted by (when, seq) via binary-search insertion. Events whose
// tick is at or behind the cursor (possible when a peek advanced the
// cursor before new work was scheduled, as the workstation's
// NextEventTime/Step pump does) are filed straight into cur, which
// keeps the pop order total without ever moving the cursor backwards.
//
// Cancellation is lazy: Cancel marks the event stopped and fixes the
// pending count; the tombstone is discarded whenever the structure next
// touches it (cur scan or cascade). Only handle events can be cancelled
// and those are never recycled, so a tombstone cannot alias a reused
// struct.
const (
	// tickBits trades cascade hops against cur length: cur absorbs and
	// sorts everything inside one tick (65.5 µs), so sub-tick ordering
	// costs a binary insert instead of a wheel level, and the dominant
	// periods (LPL 100 ms sleeps, beacon intervals) file one level
	// lower. Same-instant bursts append at cur's tail (seq is
	// monotone), so dense After(0) storms stay O(1) per event.
	tickBits    = 16 // 65.536 µs per level-0 tick
	wheelBits   = 6  // 64 slots per level, one occupancy bit each
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 8 // tickBits + wheelLevels*wheelBits = 64: the whole Time range
)

func tickOf(t Time) int64 { return int64(t) >> tickBits }

func evLess(a, b *Event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

type timerWheel struct {
	// slots holds intrusive LIFO lists chained through Event.next — a
	// slot insert is two pointer writes, and the whole level array is
	// 4 KiB of contiguous heads. List order is irrelevant: membership is
	// deterministic, and (when, seq) order is established by cur's
	// sorted insert when events reach the cursor.
	slots [wheelLevels][wheelSlots]*Event
	occ   [wheelLevels]uint64 // per-level bitmap of non-empty slots
	// curTick anchors the wheel: every slotted event's tick is strictly
	// greater, and everything at or below it sits sorted in cur.
	curTick int64
	cur     []*Event
	curIdx  int
	// count tracks resident events (live + tombstones) across cur and
	// the slots; it gates the empty-wheel fast path.
	count int
}

// insert files ev into cur or a slot, relative to the current cursor.
func (w *timerWheel) insert(ev *Event) {
	w.count++
	tick := tickOf(ev.when)
	if w.count == 1 {
		// Empty wheel: nothing pins the cursor, so jump it to the new
		// event's tick and keep the single-ticker pattern (fire, then
		// reschedule one period out) entirely inside cur — no slot
		// filing, no scan.
		if tick > w.curTick {
			w.curTick = tick
		}
		w.insertCur(ev)
		return
	}
	if tick <= w.curTick {
		w.insertCur(ev)
		return
	}
	// Both ticks are below 2^47, so the level is at most 7.
	lvl := (bits.Len64(uint64(tick^w.curTick)) - 1) / wheelBits
	slot := int(tick>>(uint(lvl)*wheelBits)) & wheelMask
	ev.next = w.slots[lvl][slot]
	w.slots[lvl][slot] = ev
	w.occ[lvl] |= 1 << uint(slot)
}

// insertCur places ev into the sorted imminent list. New events carry
// the largest seq issued so far and cascaded events keep their original
// (when, seq), so a plain binary search lands every case correctly.
func (w *timerWheel) insertCur(ev *Event) {
	lo, hi := w.curIdx, len(w.cur)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if evLess(w.cur[mid], ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	w.cur = append(w.cur, nil)
	copy(w.cur[lo+1:], w.cur[lo:])
	w.cur[lo] = ev
}

// ensureCur makes cur's head the earliest live pending event, advancing
// the cursor (cascading slots) as needed. It reports false when nothing
// is pending.
func (w *timerWheel) ensureCur() bool {
	for {
		// Fast path: a live imminent event is already at the head.
		for w.curIdx < len(w.cur) {
			ev := w.cur[w.curIdx]
			if !ev.stopped {
				return true
			}
			ev.queued = false
			w.count--
			w.cur[w.curIdx] = nil
			w.curIdx++
		}
		w.cur = w.cur[:0]
		w.curIdx = 0
		lvl := -1
		for l := 0; l < wheelLevels; l++ {
			if w.occ[l] != 0 {
				lvl = l
				break
			}
		}
		if lvl < 0 {
			return false
		}
		slot := bits.TrailingZeros64(w.occ[lvl])
		head := w.slots[lvl][slot]
		w.slots[lvl][slot] = nil
		w.occ[lvl] &^= 1 << uint(slot)
		// Advance the cursor to the slot's base tick before re-filing:
		// that zeroes this level's xor digit for every event in the
		// slot, so each lands strictly below lvl (termination) and the
		// cursor-precedes-all-slotted-events invariant is preserved.
		shift := uint(lvl) * wheelBits
		if base := (w.curTick>>(shift+wheelBits))<<(shift+wheelBits) | int64(slot)<<shift; base > w.curTick {
			w.curTick = base
		}
		if lvl == 0 {
			// A level-0 slot holds exactly one tick — the cursor's, now —
			// so its events go straight into cur, which sorts their
			// sub-tick (when, seq) order.
			for ev := head; ev != nil; {
				nx := ev.next
				ev.next = nil
				if ev.stopped {
					ev.queued = false
					w.count--
				} else {
					w.insertCur(ev)
				}
				ev = nx
			}
		} else {
			for ev := head; ev != nil; {
				nx := ev.next
				ev.next = nil
				if ev.stopped {
					ev.queued = false
					w.count--
				} else {
					w.count--
					w.insert(ev)
				}
				ev = nx
			}
		}
	}
}

// head returns the earliest live pending event without removing it, or
// nil when none is pending.
func (w *timerWheel) head() *Event {
	if !w.ensureCur() {
		return nil
	}
	return w.cur[w.curIdx]
}

// pop removes and returns the earliest live pending event. Callers must
// have seen a non-nil head (or true ensureCur) first.
func (w *timerWheel) pop() *Event {
	ev := w.cur[w.curIdx]
	w.cur[w.curIdx] = nil
	w.curIdx++
	if w.curIdx == len(w.cur) {
		w.cur = w.cur[:0]
		w.curIdx = 0
	}
	ev.queued = false
	w.count--
	return ev
}
