package medium

import (
	"strconv"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// The medium's tests observe it the way every tool does: through its
// telemetry, a tx span per transmission and an rx event per delivery
// outcome.

// delivery is one per-receiver outcome: what the rx event records, and
// for a demodulated frame the RxInfo its receiver was handed, which
// carries the exact received power, SINR, RSSI and LQI.
type delivery struct {
	TxSeq    uint64
	From, To phys.NodeID
	Outcome  deliveryOutcome
	Cause    string
	At       sim.Time
	Info     RxInfo
}

// observer records one medium's telemetry.
type observer struct {
	t        *testing.T
	rec      *telemetry.Recorder
	recorded []telemetry.Event
	nodes    map[phys.NodeID]*fakeNode
}

// observe starts recording m's telemetry. Deliveries pair demodulated
// outcomes at nodes with the RxInfo each received, in order.
func observe(t *testing.T, eng *sim.Engine, m *Medium, nodes ...*fakeNode) *observer {
	t.Helper()
	o := &observer{t: t, rec: telemetry.NewRecorder(eng), nodes: make(map[phys.NodeID]*fakeNode)}
	for _, n := range nodes {
		o.nodes[n.id] = n
	}
	m.SetTelemetry(o.rec)
	o.rec.AddSink(func(e *telemetry.Event) { o.recorded = append(o.recorded, *e) })
	o.rec.Start()
	return o
}

// events returns the recorded medium events of one kind.
func (o *observer) events(kind string) []telemetry.Event {
	var out []telemetry.Event
	for _, e := range o.recorded {
		if e.Layer == telemetry.LayerMedium && e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// attrUint parses an unsigned integer attribute of e.
func (o *observer) attrUint(e *telemetry.Event, key string) uint64 {
	o.t.Helper()
	v, _ := e.Attr(key)
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		o.t.Fatalf("event %d: attribute %s = %q: %v", e.Seq, key, v, err)
	}
	return n
}

// sentFrame is one transmission as its tx span records it.
type sentFrame struct {
	From    phys.NodeID
	Channel int
	// TxDBm is read from two decimals, exact for every PA level's power.
	TxDBm      float64
	Start, End sim.Time
}

// sent returns every transmission recorded so far, by sequence number.
func (o *observer) sent() map[uint64]sentFrame {
	o.t.Helper()
	out := make(map[uint64]sentFrame)
	for _, e := range o.events("tx") {
		v, _ := e.Attr("dbm")
		dbm, err := strconv.ParseFloat(v, 64)
		if err != nil {
			o.t.Fatalf("event %d: attribute dbm = %q: %v", e.Seq, v, err)
		}
		out[o.attrUint(&e, "txseq")] = sentFrame{From: e.NodeID, Channel: int(o.attrUint(&e, "ch")),
			TxDBm: dbm, Start: e.At, End: e.At + e.Dur}
	}
	return out
}

// deliveries returns every delivery outcome recorded so far, in order.
func (o *observer) deliveries() []delivery {
	o.t.Helper()
	next := make(map[phys.NodeID]int)
	var out []delivery
	for _, e := range o.events("rx") {
		name, _ := e.Attr("outcome")
		oc := deliveryOutcome(name)
		cause, _ := e.Attr("cause")
		d := delivery{TxSeq: o.attrUint(&e, "txseq"), From: phys.NodeID(o.attrUint(&e, "from")), To: e.NodeID,
			Outcome: oc, Cause: cause, At: e.At}
		if n := o.nodes[d.To]; n != nil && (oc == outcomeDelivered || oc == outcomeCorrupted) {
			i := next[d.To]
			if i >= len(n.frames) {
				o.t.Fatalf("node %d has no reception for delivery %+v", d.To, d)
			}
			d.Info = n.frames[i]
			next[d.To] = i + 1
		}
		out = append(out, d)
	}
	return out
}

// TestTapObservesTransmissions: a transmission is observed as one tx
// span carrying the transmitter, channel, frame size, airtime and PA
// power, and a stopped recorder observes nothing more.
func TestTapObservesTransmissions(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	obs := observe(t, eng, m)
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	spans := obs.events("tx")
	if len(spans) != 1 {
		t.Fatalf("observed %d tx spans", len(spans))
	}
	if n := obs.attrUint(&spans[0], "bytes"); n != 10 {
		t.Fatalf("bytes = %d", n)
	}
	sent := obs.sent()
	r, ok := sent[obs.attrUint(&spans[0], "txseq")]
	if !ok || r.From != 1 || r.Channel != 17 {
		t.Fatalf("transmission = %+v", r)
	}
	if r.End-r.Start != radio.FrameAirtime(10) {
		t.Fatalf("airtime = %v", r.End-r.Start)
	}
	if r.TxDBm != 0 {
		t.Fatalf("tx power = %f, want 0 dBm at full PA", r.TxDBm)
	}
	obs.rec.Stop()
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if n := len(obs.events("tx")); n != 1 {
		t.Fatalf("stopped recorder observed %d tx spans", n)
	}
}

// TestFaultHookInjectsCorruption: a fault hook's Corrupt effect makes
// the frame arrive corrupted (cause "jam"), and removing the hook
// restores clean delivery.
func TestFaultHookInjectsCorruption(t *testing.T) {
	eng, m := newTestMedium()
	a, b := newFake(1, 0, 0), newFake(2, 5, 0)
	m.Attach(a)
	m.Attach(b)
	obs := observe(t, eng, m)
	m.SetFaultHook(func(from, to phys.NodeID, _ int) FaultEffect {
		return FaultEffect{Corrupt: from == 1 && to == 2}
	})
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(b.frames) != 1 || !b.frames[0].Corrupted {
		t.Fatalf("injected fault did not corrupt: %+v", b.frames)
	}
	if d := obs.deliveries(); len(d) != 1 || d[0].Outcome != outcomeCorrupted || d[0].Cause != "jam" {
		t.Fatalf("deliveries = %+v, want one corrupted with cause jam", d)
	}
	// Remove the hook: traffic flows again.
	m.SetFaultHook(nil)
	b.frames = nil
	m.Transmit(a, make([]byte, 10))
	eng.Run()
	if len(b.frames) != 1 || b.frames[0].Corrupted {
		t.Fatal("hook removal failed")
	}
}
