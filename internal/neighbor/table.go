// Package neighbor implements the kernel-owned neighbor table and the
// beacon exchange that populates it.
//
// The paper's design argument is that multiple communication protocols
// need neighborhood information, so it is wasteful for each to keep its
// own copy: "it is more efficient to provide neighborhood management as
// part of kernel services, which both users and applications can access
// via system calls". LiteView then exposes this one table for
// management: listing entries, blacklisting a neighbor (a per-entry flag
// that routing protocols honour when constructing routes), and tuning
// the beacon exchange period.
package neighbor

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

// Entry is one neighbor record: 48 bytes, with the fields ordered
// largest first so none is padded. A MicaZ kernel would keep LQI and
// RSSI in a byte or two each; the four EWMAs stay float64 here, because
// a mote's fixed point rounds differently and so would change outputs.
type Entry struct {
	// LQI is an EWMA of the CC2420 correlation values of overheard
	// frames.
	LQI float64
	// RSSI is an EWMA of the RSSI register values of overheard frames.
	RSSI float64
	// PRR estimates the beacon delivery ratio from sequence gaps.
	PRR float64
	// Delivery is an EWMA estimate of unicast delivery probability,
	// driven by MAC transmit outcomes (acks versus no-acks/channel
	// failures). It starts optimistic at 1 and, unlike the beacon-driven
	// PRR, reacts within a few lost frames.
	Delivery float64
	// LastHeard is the virtual time of the most recent frame.
	LastHeard sim.Time
	// ID is the neighbor's short address.
	ID phys.NodeID
	// lastBeaconSeq supports gap-based PRR estimation.
	lastBeaconSeq uint16
	// Suspect marks a link penalized by SuspectAfter consecutive failed
	// unicasts. Routing protocols deprioritize suspect next hops; the
	// flag clears on the next acknowledged delivery.
	Suspect bool
	// Blacklisted marks the neighbor disabled for protocol use.
	Blacklisted bool
	seenBeacon  bool
	// consecFails counts consecutive failed unicasts toward Suspect. It
	// saturates at 255; it is only ever compared with SuspectAfter.
	consecFails uint8
}

// ETX returns the expected-transmissions cost of the link: the inverse
// of the delivery estimate, floored so a dead link costs at most
// 1/minDelivery rather than infinity.
func (e Entry) ETX() float64 {
	d := e.Delivery
	if d < minDelivery {
		d = minDelivery
	}
	return 1 / d
}

// ewmaAlpha is the smoothing weight given to each new observation.
const ewmaAlpha = 0.3

// minDelivery floors the delivery estimate so a long failure streak
// cannot pin it at zero forever: recovery within a handful of acks must
// stay possible, and ETX stays finite.
const minDelivery = 0.05

// SuspectAfter is how many consecutive failed unicasts mark a link
// suspect.
const SuspectAfter = 3

// DefaultCapacity bounds the table as a 4 KB-RAM kernel must.
const DefaultCapacity = 16

// ErrUnknownNeighbor is returned for operations on absent entries.
var ErrUnknownNeighbor = errors.New("neighbor: unknown neighbor")

// EstimatorStats counts link-estimator inputs and verdicts at one node.
type EstimatorStats struct {
	TxAcked       uint64 // unicast outcomes folded in as successes
	TxFailed      uint64 // unicast outcomes folded in as failures
	TxUnknownDst  uint64 // outcomes for destinations not in the table
	SuspectMarks  uint64 // links newly marked suspect
	SuspectClears uint64 // suspect flags cleared by an acked delivery
}

// Table is the kernel neighbor table. It is single-threaded, like
// everything on the simulated mote.
//
// A full table admits a stranger only when its link beats the weakest
// unpinned entry's (Woo, Tong & Culler's admission-controlled
// replacement): an entry keeps its row, and its EWMAs keep learning,
// for as long as it stays among the node's best-quality neighbors and
// keeps being heard. Expire frees the rows of neighbors gone silent.
type Table struct {
	// rows holds at most cap entries in no particular order; an entry
	// keeps its row until it is removed, so eviction overwrites a row in
	// place instead of moving entries. rows and keys are allocated at
	// capacity by NewTable and never grow.
	rows []Entry
	// keys indexes rows sorted by ID, so every view is walked in display
	// order. Each key copies the fields the per-frame lookup and the
	// expiry sweep read, in a quarter of an Entry.
	keys []key
	cap  int
	// weak is the row of the weakest unpinned entry (see below), or -1
	// when no entry is unpinned. It is kept current as ranks change, so
	// rejecting a stranger costs one find and one comparison.
	weak int32
	est  EstimatorStats
}

// key is one entry's index row: its ID, its row in rows, and copies of
// its LastHeard and Blacklisted fields.
type key struct {
	id     phys.NodeID
	pinned bool // Blacklisted
	row    int32
	heard  sim.Time
}

// NewTable returns a table bounded to capacity entries (DefaultCapacity
// if capacity <= 0).
func NewTable(capacity int) *Table {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Table{rows: make([]Entry, 0, capacity), keys: make([]key, 0, capacity),
		cap: capacity, weak: -1}
}

// find returns the index of id's entry, or where it would be inserted.
func (t *Table) find(id phys.NodeID) (int, bool) {
	lo, hi := 0, len(t.keys)
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if t.keys[h].id < id {
			lo = h + 1
		} else {
			hi = h
		}
	}
	return lo, lo < len(t.keys) && t.keys[lo].id == id
}

// entry returns the entry keys[i] indexes, in place.
func (t *Table) entry(i int) *Entry { return &t.rows[t.keys[i].row] }

// heard records that the entry keys[i] indexes was heard from at now.
func (t *Table) heard(i int, now sim.Time) {
	t.entry(i).LastHeard = now
	t.keys[i].heard = now
}

// lookup returns id's entry in place, or nil.
func (t *Table) lookup(id phys.NodeID) *Entry {
	if i, ok := t.find(id); ok {
		return t.entry(i)
	}
	return nil
}

// drop removes the entry keys[i] indexes: the last row moves into its
// row, so rows stay dense. The caller recomputes weak.
func (t *Table) drop(i int) {
	r, last := t.keys[i].row, int32(len(t.rows)-1)
	if r != last {
		t.rows[r] = t.rows[last]
		for j := range t.keys {
			if t.keys[j].row == last {
				t.keys[j].row = r
				break
			}
		}
	}
	t.rows[last] = Entry{}
	t.rows = t.rows[:last]
	t.keys = slices.Delete(t.keys, i, i+1)
}

// Len returns the number of entries.
func (t *Table) Len() int { return len(t.keys) }

// Observe folds one overheard frame's link metadata into the table.
// A stranger is inserted if there is room; when the table is full it
// replaces the weakest unpinned entry only if its (LQI, RSSI) beats
// that entry's EWMAs, LQI first. Otherwise Observe returns nil and the
// frame changes nothing. The returned entry is the table's own, valid
// until its neighbor is evicted or removed: the rows never move, as
// they are allocated at capacity.
func (t *Table) Observe(id phys.NodeID, lqi int, rssi int, now sim.Time) *Entry {
	i, ok := t.find(id)
	if ok {
		e := t.entry(i)
		lqi0, rssi0 := e.LQI, e.RSSI
		e.LQI += ewmaAlpha * (float64(lqi) - e.LQI)
		e.RSSI += ewmaAlpha * (float64(rssi) - e.RSSI)
		t.heard(i, now)
		if k := t.keys[i]; !k.pinned {
			t.reranked(k.row, e.LQI > lqi0 || e.LQI == lqi0 && e.RSSI > rssi0)
		}
		return e
	}
	var r int32
	full := len(t.keys) == t.cap
	if !full {
		r = int32(len(t.rows))
		t.rows = append(t.rows, Entry{})
		t.keys = slices.Insert(t.keys, i, key{})
	} else {
		if t.weak < 0 {
			return nil
		}
		w := &t.rows[t.weak]
		if l := float64(lqi); l < w.LQI || l == w.LQI && float64(rssi) <= w.RSSI {
			return nil
		}
		// Evict the weakest entry v: the newcomer takes its row, and one
		// shift of the keys between v and i re-sorts the index.
		r = t.weak
		v, _ := t.find(w.ID)
		if v < i {
			i--
			copy(t.keys[v:i], t.keys[v+1:i+1])
		} else {
			copy(t.keys[i+1:v+1], t.keys[i:v])
		}
	}
	t.rows[r] = Entry{ID: id, LQI: float64(lqi), RSSI: float64(rssi),
		PRR: 1, Delivery: 1, LastHeard: now}
	t.keys[i] = key{id: id, row: r, heard: now}
	if full {
		t.weak = t.weakest()
	} else {
		t.reranked(r, false)
	}
	return &t.rows[r]
}

// below reports whether a ranks below b: lower LQI EWMA, then lower
// RSSI EWMA, then lower ID.
func below(a, b *Entry) bool {
	if a.LQI != b.LQI {
		return a.LQI < b.LQI
	}
	if a.RSSI != b.RSSI {
		return a.RSSI < b.RSSI
	}
	return a.ID < b.ID
}

// reranked keeps weak current after the unpinned entry in row r was
// inserted or changed its EWMAs; rose reports that its rank went up. A
// rank that falls can only make r the weakest, so only the weakest
// entry rising costs a scan.
func (t *Table) reranked(r int32, rose bool) {
	switch {
	case r == t.weak:
		if rose {
			t.weak = t.weakest()
		}
	case t.weak < 0 || below(&t.rows[r], &t.rows[t.weak]):
		t.weak = r
	}
}

// weakest returns the row of the lowest-ranked unpinned entry (see
// below); blacklisted entries are pinned, as the user set them
// deliberately. -1 when every entry is pinned.
func (t *Table) weakest() int32 {
	w := int32(-1)
	for _, k := range t.keys {
		if !k.pinned && (w < 0 || below(&t.rows[k.row], &t.rows[w])) {
			w = k.row
		}
	}
	return w
}

// ObserveTxResult folds one unicast transmit outcome for neighbor id
// into the delivery estimate: ok refreshes the EWMA toward 1 (and
// clears any suspect flag), a failure drags it toward the minDelivery
// floor. SuspectAfter consecutive failures mark the link suspect; the
// return value reports whether this call newly did so, letting the
// caller emit a telemetry event exactly once per streak. Outcomes for
// unknown destinations are counted and dropped — a transmit result
// carries no LQI/RSSI to seed an entry with.
func (t *Table) ObserveTxResult(id phys.NodeID, ok bool, now sim.Time) (becameSuspect bool) {
	i, found := t.find(id)
	if !found {
		t.est.TxUnknownDst++
		return false
	}
	e := t.entry(i)
	if ok {
		t.est.TxAcked++
		e.Delivery += ewmaAlpha * (1 - e.Delivery)
		e.consecFails = 0
		if e.Suspect {
			e.Suspect = false
			t.est.SuspectClears++
		}
		// An ack is first-hand evidence the neighbor is alive.
		t.heard(i, now)
		return false
	}
	t.est.TxFailed++
	e.Delivery += ewmaAlpha * (0 - e.Delivery)
	if e.Delivery < minDelivery {
		e.Delivery = minDelivery
	}
	if e.consecFails < math.MaxUint8 {
		e.consecFails++
	}
	if e.consecFails >= SuspectAfter && !e.Suspect {
		e.Suspect = true
		t.est.SuspectMarks++
		return true
	}
	return false
}

// MarkSuspect sets or clears the suspect flag directly — routing uses
// this when its own failure streak condemns a next hop before the
// estimator threshold fires (or when the table wiring is absent).
func (t *Table) MarkSuspect(id phys.NodeID, on bool) error {
	e := t.lookup(id)
	if e == nil {
		return fmt.Errorf("%w: %d", ErrUnknownNeighbor, id)
	}
	if e.Suspect != on {
		e.Suspect = on
		if on {
			t.est.SuspectMarks++
		} else {
			t.est.SuspectClears++
		}
	}
	if !on {
		e.consecFails = 0
	}
	return nil
}

// Suspects returns copies of the currently suspect entries sorted by ID
// (the shell's `health` view).
func (t *Table) Suspects() []Entry {
	out := make([]Entry, 0, len(t.keys))
	for _, k := range t.keys {
		if e := &t.rows[k.row]; e.Suspect {
			out = append(out, *e)
		}
	}
	return out
}

// EstimatorStats returns a snapshot of the link-estimator counters.
func (t *Table) EstimatorStats() EstimatorStats { return t.est }

// ResetEstimatorStats zeroes the link-estimator counters (the shell's
// `stats reset` includes them so chaos runs start from a clean slate).
func (t *Table) ResetEstimatorStats() { t.est = EstimatorStats{} }

// ObserveBeacon folds a received beacon into the table: it refreshes
// link metadata and updates the PRR estimate from the beacon sequence
// gap.
func (t *Table) ObserveBeacon(id phys.NodeID, seq uint16, lqi, rssi int, now sim.Time) {
	e := t.Observe(id, lqi, rssi, now)
	if e == nil {
		return
	}
	if e.seenBeacon {
		gap := int(seq - e.lastBeaconSeq) // wraps correctly in uint16
		if gap < 1 {
			gap = 1
		}
		// One success preceded by gap-1 losses.
		for i := 0; i < gap-1 && i < 16; i++ {
			e.PRR += ewmaAlpha * (0 - e.PRR)
		}
		e.PRR += ewmaAlpha * (1 - e.PRR)
	}
	e.seenBeacon = true
	e.lastBeaconSeq = seq
}

// Get returns a copy of the entry for id.
func (t *Table) Get(id phys.NodeID) (Entry, bool) {
	if e := t.lookup(id); e != nil {
		return *e, true
	}
	return Entry{}, false
}

// Entries returns copies of all entries sorted by ID (deterministic for
// display and routing).
func (t *Table) Entries() []Entry {
	out := make([]Entry, len(t.keys))
	for i, k := range t.keys {
		out[i] = t.rows[k.row]
	}
	return out
}

// EachUsable calls fn with each non-blacklisted entry, in place, in ID
// order; this is the view routing protocols consume, read without a
// copy. fn must not change the table.
func (t *Table) EachUsable(fn func(*Entry)) {
	for _, k := range t.keys {
		if !k.pinned {
			fn(&t.rows[k.row])
		}
	}
}

// Blacklist sets or clears the disabled flag on a neighbor. The entry
// must exist: LiteView surfaces an error to the user otherwise.
func (t *Table) Blacklist(id phys.NodeID, on bool) error {
	i, ok := t.find(id)
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownNeighbor, id)
	}
	t.entry(i).Blacklisted = on
	t.keys[i].pinned = on
	t.weak = t.weakest()
	return nil
}

// IsBlacklisted reports whether id is present and disabled.
func (t *Table) IsBlacklisted(id phys.NodeID) bool {
	e := t.lookup(id)
	return e != nil && e.Blacklisted
}

// Remove deletes an entry entirely.
func (t *Table) Remove(id phys.NodeID) {
	if i, ok := t.find(id); ok {
		t.drop(i)
		t.weak = t.weakest()
	}
}

// Clear drops every entry, blacklisted or not. The kernel calls this on
// a crash: neighbor state lives in RAM and does not survive a reboot.
func (t *Table) Clear() {
	clear(t.rows)
	t.rows, t.keys = t.rows[:0], t.keys[:0]
	t.weak = -1
}

// Expire drops entries not heard since the cutoff, keeping blacklisted
// pins.
func (t *Table) Expire(cutoff sim.Time) int {
	n := 0
	for i := len(t.keys) - 1; i >= 0; i-- {
		if k := t.keys[i]; !k.pinned && k.heard < cutoff {
			t.drop(i)
			n++
		}
	}
	if n > 0 {
		t.weak = t.weakest()
	}
	return n
}
