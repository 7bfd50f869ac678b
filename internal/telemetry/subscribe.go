package telemetry

import "sync"

// DefaultSubscriptionDepth is the ring size Subscribe uses when the
// caller passes depth <= 0.
const DefaultSubscriptionDepth = 1024

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
	buf     []Event
	head    int // index of the oldest buffered event
	n       int // buffered count
	dropped uint64
	closed  bool
}

// Subscribe attaches a live tap delivering events that match f into a
// ring of the given depth (depth <= 0 selects
// DefaultSubscriptionDepth). Safe to call from any goroutine; returns
// nil on a nil recorder.
func (r *Recorder) Subscribe(f Filter, depth int) *Subscription {
	if r == nil {
		return nil
	}
	if depth <= 0 {
		depth = DefaultSubscriptionDepth
	}
	s := &Subscription{r: r, filter: f, buf: make([]Event, depth)}
	r.subMu.Lock()
	r.subs = append(r.subs, s)
	r.subMu.Unlock()
	r.live.Add(1)
	return s
}

// offer pushes one event into the ring (called on the simulation
// goroutine with the recorder's subscriber list locked).
func (s *Subscription) offer(e Event) {
	if !s.filter.Match(&e) {
		return
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	if s.n == len(s.buf) {
		s.buf[s.head] = e
		s.head = (s.head + 1) % len(s.buf)
		s.dropped++
	} else {
		s.buf[(s.head+s.n)%len(s.buf)] = e
		s.n++
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
	if s.n == 0 {
		return nil
	}
	if max <= 0 || max > s.n {
		max = s.n
	}
	out := make([]Event, 0, max)
	for i := 0; i < max; i++ {
		out = append(out, s.buf[s.head])
		s.head = (s.head + 1) % len(s.buf)
		s.n--
	}
	return out
}

// Pending reports how many events are buffered and undrained.
func (s *Subscription) Pending() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
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
	for i, other := range r.subs {
		if other == s {
			r.subs = append(r.subs[:i], r.subs[i+1:]...)
			r.live.Add(-1)
			break
		}
	}
	r.subMu.Unlock()
}
