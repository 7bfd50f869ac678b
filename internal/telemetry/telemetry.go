// Package telemetry is the cross-layer observability spine of the
// reproduction: a deterministic, zero-perturbation event bus plus a
// metrics registry that every layer publishes into — the medium
// (per-receiver delivery outcomes, SINR, corruption cause), the MAC
// (CCA results, backoffs, retries, queue depth), routing (next-hop
// decisions, drops), the port stack (dispatch), the reliable exchange
// (batches, acks, timeouts, aborts), the runtime controllers (command
// execution), and the fault injector (activations).
//
// The determinism contract mirrors the fault injector's: recording is
// opt-in, and emitting events never draws from any random stream,
// never schedules engine events, and never changes a code path in the
// instrumented layers. A run with telemetry enabled therefore produces
// the same diagnosis report, medium counters and engine event count as
// the same seeded run without it — asserted by the regression test in
// determinism_test.go.
//
// Every event is stamped with the virtual clock, the owning node, the
// layer, and a monotonic sequence number, so an exported stream is a
// totally ordered timeline of everything the simulation did.
package telemetry

import (
	"strconv"
	"sync"
	"sync/atomic"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

// Layer names the subsystem an event came from. The values double as
// the category strings in exported traces.
type Layer string

// The instrumented layers, bottom-up.
const (
	LayerMedium     Layer = "medium"
	LayerMAC        Layer = "mac"
	LayerNeighbor   Layer = "neighbor"
	LayerStack      Layer = "stack"
	LayerRouting    Layer = "routing"
	LayerReliable   Layer = "reliable"
	LayerController Layer = "controller"
	LayerFault      Layer = "fault"
	// LayerSpan carries command-scoped span records: one event per
	// completed workstation command (ping, traceroute, fault, ...),
	// stamped At the command's start with Dur covering its extent.
	LayerSpan Layer = "span"
)

// Layers lists every known layer in stack order (bottom-up). Exporters
// use the position as a stable thread id.
func Layers() []Layer {
	return []Layer{LayerMedium, LayerMAC, LayerNeighbor, LayerStack,
		LayerRouting, LayerReliable, LayerController, LayerFault,
		LayerSpan}
}

// Attr is one key-value annotation on an event. Attributes are an
// ordered slice, not a map, so exports are deterministic.
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, val int) Attr { return Attr{Key: key, Val: strconv.Itoa(val)} }

// Uint64 builds an unsigned integer attribute.
func Uint64(key string, val uint64) Attr {
	return Attr{Key: key, Val: strconv.FormatUint(val, 10)}
}

// Node builds a node-reference attribute.
func Node(key string, id phys.NodeID) Attr {
	return Attr{Key: key, Val: strconv.FormatUint(uint64(id), 10)}
}

// Float builds a fixed-precision float attribute (two decimals — the
// precision the paper's tables use; fixed so exports are byte-stable).
func Float(key string, val float64) Attr {
	return Attr{Key: key, Val: strconv.FormatFloat(val, 'f', 2, 64)}
}

// Bool builds a boolean attribute.
func Bool(key string, val bool) Attr {
	if val {
		return Attr{Key: key, Val: "true"}
	}
	return Attr{Key: key, Val: "false"}
}

// Event is one recorded observation.
type Event struct {
	// Seq is the monotonic sequence number assigned at recording time;
	// it totally orders the stream (the virtual clock alone does not:
	// many events share an instant).
	Seq uint64
	// At is the virtual time of the event.
	At sim.Time
	// Dur is the event's extent for span-shaped events (a frame's
	// airtime); zero for instants.
	Dur sim.Time
	// NodeID is the owning node (the receiver for delivery outcomes,
	// the transmitter for transmissions); 0 for network-wide events.
	NodeID phys.NodeID
	// Layer is the emitting subsystem.
	Layer Layer
	// Kind classifies the event within its layer ("tx", "rx", "cca",
	// "ack-timeout", "command", ...).
	Kind string
	// Span is the id of the workstation command span active when the
	// event was recorded (0 = none). For LayerSpan records it is the
	// span's own id.
	Span uint64
	// Attrs carries the event's key-value detail in emission order.
	Attrs []Attr
}

// Attr returns the value of the named attribute and whether it exists.
func (e *Event) Attr(key string) (string, bool) {
	for _, a := range e.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Recorder is the event bus. One recorder serves a whole deployment:
// every instrumented component holds a pointer and publishes through
// it. A nil *Recorder is valid and records nothing, so components can
// emit unconditionally:
//
//	m.tel.Emit(...)   // no-op when m.tel is nil or stopped
//
// Recording is off until Start is called. While it is on, each event
// goes to the sinks: the recorder's own bounded summary (see History,
// Summary and SpanSummary) and any a caller attached, such as an
// exporter. Nothing else keeps it, so a recording costs the same memory
// at any length. A live Subscription sees events whether or not the
// recorder records them; with neither, Emit returns before evaluating
// anything.
type Recorder struct {
	eng       *sim.Engine
	recording bool
	seq       uint64
	ev        Event // the event being recorded; see record

	// live is what Emit's guard loads: 1 while recording, plus 1 per
	// attached Subscription. Start and Stop change it on the simulation
	// goroutine, Subscribe and Close from any goroutine.
	live atomic.Int32

	// What recording feeds, on the simulation goroutine like seq: kept
	// is sinks[0].
	sinks []Sink
	kept  summary

	// Command-span state, on the simulation goroutine too.
	spanSeq   uint64
	spanDepth int
	active    spanState

	// Subscribers live outside the deterministic state: the list is
	// mutex-guarded so consumer goroutines attach and detach while the
	// simulation goroutine fans out.
	subMu sync.Mutex
	subs  []*Subscription
}

// A Sink takes each event the recorder records, synchronously on the
// simulation goroutine and in sequence order, while recording is on.
// The event belongs to the recorder: a sink that keeps one copies it.
// A sink must not touch the simulation.
type Sink func(*Event)

// spanState is the currently open outermost command span.
type spanState struct {
	id    uint64
	node  phys.NodeID
	name  string
	start sim.Time
	attrs []Attr
}

// NewRecorder builds a stopped recorder on the engine's virtual clock.
func NewRecorder(eng *sim.Engine) *Recorder {
	r := &Recorder{eng: eng}
	r.sinks = []Sink{r.kept.add}
	return r
}

// AddSink attaches s: it takes every event recorded from now on. Call
// it on the simulation goroutine, normally just before Start.
func (r *Recorder) AddSink(s Sink) { r.sinks = append(r.sinks, s) }

// Start begins recording. Events emitted while stopped are not kept.
func (r *Recorder) Start() {
	if !r.recording {
		r.recording = true
		r.live.Add(1)
	}
}

// Stop pauses recording; what it kept stays.
func (r *Recorder) Stop() {
	if r.recording {
		r.recording = false
		r.live.Add(-1)
	}
}

// Recording reports whether anything takes events: the recorder itself
// or a live Subscription. It is safe on a nil receiver (reports false),
// which is what lets instrumentation sites guard expensive attribute
// formatting with one call.
func (r *Recorder) Recording() bool { return r != nil && r.live.Load() != 0 }

// Emit records one instant event. No-op when the recorder is nil or
// stopped.
func (r *Recorder) Emit(node phys.NodeID, layer Layer, kind string, attrs ...Attr) {
	r.EmitSpan(node, layer, kind, 0, attrs...)
}

// EmitSpan records one event with a duration (a span on the exported
// timeline). No-op when the recorder is nil or stopped.
func (r *Recorder) EmitSpan(node phys.NodeID, layer Layer, kind string, dur sim.Time, attrs ...Attr) {
	if !r.Recording() {
		return
	}
	r.record(Event{At: r.eng.Now(), Dur: dur, NodeID: node, Layer: layer, Kind: kind,
		Span: r.active.id, Attrs: attrs})
}

// record stamps ev with the next sequence number, hands it to the sinks
// while recording, and fans it out to subscribers. They all see r.ev,
// the one copy, and copy what they keep, so recording allocates no
// Event. The fan-out touches none of the simulation's state, which is
// what makes attaching a Subscription zero-perturbation (DESIGN §12); a
// stream alone keeps nothing, so it costs no memory.
func (r *Recorder) record(ev Event) {
	r.seq++
	ev.Seq = r.seq
	r.ev = ev
	e := &r.ev
	subs := r.live.Load()
	if r.recording {
		for _, s := range r.sinks {
			s(e)
		}
		subs--
	}
	if subs == 0 {
		return
	}
	r.subMu.Lock()
	for _, s := range r.subs {
		s.offer(e)
	}
	r.subMu.Unlock()
}

// BeginSpan opens a command-scoped span owned by node. Every event
// emitted before the matching EndSpan is stamped with the returned span
// id, so a trace can answer "which transmissions did this command
// cause". Spans do not nest: the outermost wins, and nested calls
// return 0 (EndSpan(0) is a harmless no-op close). Returns 0 when
// nothing takes events (see Recording).
func (r *Recorder) BeginSpan(node phys.NodeID, name string, attrs ...Attr) uint64 {
	if r == nil {
		return 0
	}
	r.spanDepth++
	if r.spanDepth > 1 || !r.Recording() {
		return 0
	}
	r.spanSeq++
	r.active = spanState{
		id:    r.spanSeq,
		node:  node,
		name:  name,
		start: r.eng.Now(),
		attrs: attrs,
	}
	return r.active.id
}

// EndSpan closes the span opened by BeginSpan. When id is the live
// outermost span, a LayerSpan event is recorded At the span's start
// with Dur covering its extent, carrying the open attrs plus any
// closing attrs (typically the command verdict).
func (r *Recorder) EndSpan(id uint64, attrs ...Attr) {
	if r == nil || r.spanDepth == 0 {
		return
	}
	r.spanDepth--
	if id == 0 || id != r.active.id {
		return
	}
	sp := r.active
	r.active = spanState{}
	if !r.Recording() {
		return
	}
	all := sp.attrs
	if len(attrs) > 0 {
		all = append(append([]Attr(nil), sp.attrs...), attrs...)
	}
	r.record(Event{At: sp.start, Dur: r.eng.Now() - sp.start, NodeID: sp.node, Layer: LayerSpan,
		Kind: sp.name, Span: sp.id, Attrs: all})
}
