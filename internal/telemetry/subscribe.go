package telemetry

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"liteview/internal/phys"
)

// ring is a fixed-size FIFO: a push onto a full ring overwrites the
// oldest element. It is the one buffer behind subscriptions, the
// recorder's history and its span rows; callers do their own locking.
type ring[T any] struct {
	buf  []T
	head int // index of the oldest element
	n    int // elements held
}

func newRing[T any](depth int) ring[T] { return ring[T]{buf: make([]T, depth)} }

// push appends v and reports whether the ring was full, so the oldest
// element was overwritten.
func (q *ring[T]) push(v T) bool {
	if q.n == len(q.buf) {
		q.buf[q.head] = v
		q.head = (q.head + 1) % len(q.buf)
		return true
	}
	q.buf[(q.head+q.n)%len(q.buf)] = v
	q.n++
	return false
}

// pop removes and returns the oldest element; the ring must not be
// empty.
func (q *ring[T]) pop() T {
	v := q.buf[q.head]
	var zero T
	q.buf[q.head] = zero
	q.head = (q.head + 1) % len(q.buf)
	q.n--
	return v
}

// newest calls f on the newest n elements (all of them when n <= 0),
// oldest first.
func (q *ring[T]) newest(n int, f func(*T)) {
	if n <= 0 || n > q.n {
		n = q.n
	}
	for i := q.n - n; i < q.n; i++ {
		f(&q.buf[(q.head+i)%len(q.buf)])
	}
}

// Filter selects a subset of an event stream. Zero value matches
// everything; each non-zero field is an AND condition.
type Filter struct {
	// Node keeps only events owned by this node (0 = any).
	Node phys.NodeID
	// Layer keeps only events from this layer ("" = any).
	Layer Layer
	// Kind keeps only events of this kind ("" = any).
	Kind string
	// Link keeps events that involve both of its endpoints (zero =
	// any).
	Link Link
	// Span keeps only events stamped with this command span id
	// (0 = any).
	Span uint64
}

// Link is a parsed link filter: the two endpoints in decimal, as node
// attributes carry them. The zero Link matches every event.
type Link struct{ a, b string }

// ParseLink parses an "A-B" pair of node ids; "" gives the zero Link.
func ParseLink(s string) (Link, error) {
	if s == "" {
		return Link{}, nil
	}
	as, bs, ok := strings.Cut(s, "-")
	a, errA := strconv.ParseUint(strings.TrimSpace(as), 10, 16)
	b, errB := strconv.ParseUint(strings.TrimSpace(bs), 10, 16)
	if !ok || errA != nil || errB != nil {
		return Link{}, fmt.Errorf("telemetry: link %q: want two node ids, A-B", s)
	}
	return Link{strconv.FormatUint(a, 10), strconv.FormatUint(b, 10)}, nil
}

// Match reports whether the event passes the filter.
func (f *Filter) Match(e *Event) bool {
	if f.Node != 0 && e.NodeID != f.Node {
		return false
	}
	if f.Layer != "" && e.Layer != f.Layer {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.Span != 0 && e.Span != f.Span {
		return false
	}
	if f.Link != (Link{}) {
		node := strconv.FormatUint(uint64(e.NodeID), 10)
		return involves(e, node, f.Link.a) && involves(e, node, f.Link.b)
	}
	return true
}

// involves reports whether the event involves node id: as its owner
// (node is the owner in decimal) or in a from/to/src/dst/next
// attribute, in either direction.
func involves(e *Event, node, id string) bool {
	if node == id {
		return true
	}
	for _, key := range [...]string{"from", "to", "src", "dst", "next"} {
		if v, ok := e.Attr(key); ok && v == id {
			return true
		}
	}
	return false
}

// Subscription is a live tap on the recorder's event stream: a bounded
// ring the simulation goroutine pushes matching events into and a
// consumer goroutine drains with Poll. When the consumer falls behind,
// the oldest buffered events are overwritten and the drop counter
// advances — the bus never blocks and never grows, which is half of the
// zero-perturbation contract (the other half: emitting an event never
// changes the simulation, so attaching or detaching one cannot change a
// single simulated byte). A subscription needs no recording: on a
// stopped recorder it still sees every matching event, and the recorder
// keeps none of them.
type Subscription struct {
	r      *Recorder
	filter Filter

	mu      sync.Mutex
	ring    ring[Event]
	dropped uint64
	closed  bool
}

// Subscribe attaches a live tap delivering events that match f into a
// ring of the given depth (depth <= 0 selects RingDepth). Safe to call from any goroutine; returns
// nil on a nil recorder.
func (r *Recorder) Subscribe(f Filter, depth int) *Subscription {
	if r == nil {
		return nil
	}
	if depth <= 0 {
		depth = RingDepth
	}
	s := &Subscription{r: r, filter: f, ring: newRing[Event](depth)}
	r.subMu.Lock()
	r.subs = append(r.subs, s)
	r.subMu.Unlock()
	r.live.Add(1)
	return s
}

// offer pushes one event into the ring (called on the simulation
// goroutine with the recorder's subscriber list locked).
func (s *Subscription) offer(e *Event) {
	if !s.filter.Match(e) {
		return
	}
	s.mu.Lock()
	if !s.closed && s.ring.push(*e) {
		s.dropped++
	}
	s.mu.Unlock()
}

// Poll drains up to max buffered events in arrival order (max <= 0
// drains everything buffered). Safe from any goroutine; returns nil
// when nothing is pending or the subscription is nil.
func (s *Subscription) Poll(max int) []Event {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ring.n == 0 {
		return nil
	}
	if max <= 0 || max > s.ring.n {
		max = s.ring.n
	}
	out := make([]Event, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s.ring.pop())
	}
	return out
}

// Dropped reports how many events were overwritten because the
// consumer fell behind the ring.
func (s *Subscription) Dropped() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dropped
}

// Close detaches the subscription from the recorder. Buffered events
// remain pollable; further events are not delivered. Idempotent and
// safe from any goroutine.
func (s *Subscription) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	r := s.r
	r.subMu.Lock()
	if i := slices.Index(r.subs, s); i >= 0 {
		r.subs = slices.Delete(r.subs, i, i+1)
		r.live.Add(-1)
	}
	r.subMu.Unlock()
}
