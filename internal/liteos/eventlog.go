package liteos

import (
	"fmt"

	"liteview/internal/sim"
)

// EventLog is LiteOS's on-demand logging of internal events: a small
// ring buffer a user enables only when debugging, so it costs nothing
// in the common case: the ring is allocated on the first Enable, and a
// log never enabled holds no buffer. The buffer is circular — appends
// are O(1) and memory stays flat at the configured capacity no matter
// how long the node runs.
type EventLog struct {
	enabled bool
	// capacity is the ring's size in entries; buf is nil until the
	// first Enable, then exactly capacity long.
	capacity int
	buf      []LogEntry
	// head indexes the oldest entry; n is the number of live entries.
	head    int
	n       int
	dropped uint64
}

// LogEntry is one logged event.
type LogEntry struct {
	// At is the virtual time of the event.
	At sim.Time
	// Tag classifies the event ("ping", "route", ...).
	Tag string
	// Msg is the event text.
	Msg string
}

func (e LogEntry) String() string {
	return fmt.Sprintf("[%v] %s: %s", e.At, e.Tag, e.Msg)
}

// eventLogCap bounds a node's kernel event-log ring.
const eventLogCap = 64

// NewEventLog returns a disabled log bounded to capacity entries
// (eventLogCap if capacity <= 0).
func NewEventLog(capacity int) *EventLog {
	if capacity <= 0 {
		capacity = eventLogCap
	}
	return &EventLog{capacity: capacity}
}

// Enable turns logging on, allocating the ring the first time.
func (l *EventLog) Enable() {
	if l.buf == nil {
		l.buf = make([]LogEntry, l.capacity)
	}
	l.enabled = true
}

// Disable turns logging off without clearing recorded entries.
func (l *EventLog) Disable() { l.enabled = false }

// Enabled reports whether events are being recorded.
func (l *EventLog) Enabled() bool { return l.enabled }

// Len returns the number of recorded entries.
func (l *EventLog) Len() int { return l.n }

// Append records an event when enabled, evicting the oldest entry when
// the ring is full.
func (l *EventLog) Append(at sim.Time, tag, msg string) {
	if !l.enabled {
		return
	}
	if l.n == len(l.buf) {
		l.buf[l.head] = LogEntry{At: at, Tag: tag, Msg: msg}
		l.head = (l.head + 1) % len(l.buf)
		l.dropped++
		return
	}
	l.buf[(l.head+l.n)%len(l.buf)] = LogEntry{At: at, Tag: tag, Msg: msg}
	l.n++
}

// Entries returns a copy of the recorded events, oldest first.
func (l *EventLog) Entries() []LogEntry {
	out := make([]LogEntry, l.n)
	for i := 0; i < l.n; i++ {
		out[i] = l.buf[(l.head+i)%len(l.buf)]
	}
	return out
}

// Dropped reports how many events were evicted from the ring.
func (l *EventLog) Dropped() uint64 {
	return l.dropped
}

// Clear discards recorded entries.
func (l *EventLog) Clear() {
	// Zero the slots so evicted strings are collectable.
	for i := range l.buf {
		l.buf[i] = LogEntry{}
	}
	l.head, l.n, l.dropped = 0, 0, 0
}
