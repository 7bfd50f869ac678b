package telemetry

import (
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"liteview/internal/sim"
)

func testRecorder() (*sim.Engine, *Recorder) {
	eng := sim.NewEngine(1)
	rec := NewRecorder(eng)
	rec.Start()
	return eng, rec
}

// collect attaches a sink that keeps a copy of every event rec records
// from now on.
func collect(rec *Recorder) *[]Event {
	var es []Event
	rec.AddSink(func(e *Event) { es = append(es, *e) })
	return &es
}

// export runs events through an exporter and returns what it wrote.
func export(t *testing.T, newExporter func(io.Writer) (Sink, func() error), events []Event) string {
	t.Helper()
	var b strings.Builder
	sink, finish := newExporter(&b)
	for i := range events {
		sink(&events[i])
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSequenceAndClockStamping(t *testing.T) {
	eng, rec := testRecorder()
	got := collect(rec)
	rec.Emit(1, LayerMAC, "first")
	eng.Schedule(time.Second, func() {
		rec.EmitSpan(2, LayerMedium, "second", 3*time.Millisecond, Int("x", 7))
	})
	eng.Run()
	rec.Emit(3, LayerRouting, "third")
	es := *got
	if len(es) != 3 || rec.Len() != 3 {
		t.Fatalf("len = %d", len(es))
	}
	for i, e := range es {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d seq = %d", i, e.Seq)
		}
	}
	if es[1].At != time.Second || es[1].Dur != 3*time.Millisecond {
		t.Fatalf("stamp: at=%v dur=%v", es[1].At, es[1].Dur)
	}
	if es[2].At != time.Second { // virtual clock stays put after Run
		t.Fatalf("third at = %v", es[2].At)
	}
	if v, ok := es[1].Attr("x"); !ok || v != "7" {
		t.Fatalf("attr x = %q,%v", v, ok)
	}
	if _, ok := es[1].Attr("missing"); ok {
		t.Fatal("found a missing attr")
	}
}

func TestStoppedAndNilRecordersAreInert(t *testing.T) {
	_, rec := testRecorder()
	rec.Stop()
	rec.Emit(1, LayerMAC, "lost")
	if rec.Len() != 0 || rec.Recording() {
		t.Fatal("stopped recorder recorded")
	}

	var nilRec *Recorder
	if nilRec.Recording() {
		t.Fatal("nil recorder claims to record")
	}
	nilRec.Emit(1, LayerMAC, "x") // must not panic
	if nilRec.Len() != 0 {
		t.Fatal("nil recorder holds events")
	}
}

func filterEvents() []Event {
	return []Event{
		{Seq: 1, NodeID: 1, Layer: LayerMedium, Kind: "rx",
			Attrs: []Attr{String("from", "2"), String("outcome", "delivered")}},
		{Seq: 2, NodeID: 3, Layer: LayerMAC, Kind: "enqueue",
			Attrs: []Attr{String("dst", "4")}},
		{Seq: 3, NodeID: 5, Layer: LayerRouting, Kind: "forward",
			Attrs: []Attr{String("next", "6"), String("port", "10")}},
	}
}

func TestFilterMatching(t *testing.T) {
	es := filterEvents()
	cases := []struct {
		name string
		f    Filter
		want []uint64 // surviving seqs
	}{
		{"empty matches all", Filter{}, []uint64{1, 2, 3}},
		{"node", Filter{Node: 3}, []uint64{2}},
		{"layer", Filter{Layer: LayerMedium}, []uint64{1}},
		{"kind", Filter{Kind: "forward"}, []uint64{3}},
		{"link forward", Filter{Link: link(t, "2-1")}, []uint64{1}},
		{"link reversed", Filter{Link: link(t, " 1 - 2")}, []uint64{1}},
		{"link via next attr", Filter{Link: link(t, "5-6")}, []uint64{3}},
		{"link misses", Filter{Link: link(t, "7-8")}, nil},
		{"conjunction", Filter{Node: 3, Kind: "rx"}, nil},
	}
	for _, c := range cases {
		var seqs []uint64
		for i := range es {
			if c.f.Match(&es[i]) {
				seqs = append(seqs, es[i].Seq)
			}
		}
		if len(seqs) != len(c.want) {
			t.Fatalf("%s: got %v, want %v", c.name, seqs, c.want)
		}
		for i := range seqs {
			if seqs[i] != c.want[i] {
				t.Fatalf("%s: got %v, want %v", c.name, seqs, c.want)
			}
		}
	}
}

func link(t *testing.T, s string) Link {
	t.Helper()
	l, err := ParseLink(s)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestParseLinkRejectsMalformed: a link filter that names no two node
// ids is an error, not a filter that silently matches nothing.
func TestParseLinkRejectsMalformed(t *testing.T) {
	for _, s := range []string{"3", "a-b", "1-", "-2", "1-2-3", "1-70000"} {
		if _, err := ParseLink(s); err == nil {
			t.Errorf("ParseLink(%q) accepted", s)
		}
	}
	if l, err := ParseLink(""); err != nil || l != (Link{}) {
		t.Fatalf("ParseLink(\"\") = %v, %v; want the zero Link", l, err)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	eng, rec := testRecorder()
	var b strings.Builder
	sink, finish := NewJSONL(&b)
	rec.AddSink(sink)
	eng.Schedule(time.Millisecond, func() {
		rec.EmitSpan(2, LayerMedium, "tx", 500*time.Microsecond, Int("ch", 17), String("note", `q"uote`))
		rec.Emit(3, LayerMAC, "bare")
	})
	eng.Run()
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var first struct {
		Seq   uint64            `json:"seq"`
		US    int64             `json:"us"`
		DurUS int64             `json:"dur_us"`
		Node  int               `json:"node"`
		Layer string            `json:"layer"`
		Kind  string            `json:"kind"`
		Attrs map[string]string `json:"attrs"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 1 is not JSON: %v\n%s", err, lines[0])
	}
	if first.Seq != 1 || first.US != 1000 || first.DurUS != 500 ||
		first.Node != 2 || first.Layer != "medium" || first.Kind != "tx" {
		t.Fatalf("decoded: %+v", first)
	}
	if first.Attrs["ch"] != "17" || first.Attrs["note"] != `q"uote` {
		t.Fatalf("attrs: %v", first.Attrs)
	}
	// The bare event must omit dur_us and attrs entirely.
	if strings.Contains(lines[1], "dur_us") || strings.Contains(lines[1], "attrs") {
		t.Fatalf("bare event has optional fields: %s", lines[1])
	}
}

func TestWriteChromeTraceParses(t *testing.T) {
	eng, rec := testRecorder()
	got := collect(rec)
	eng.Schedule(time.Millisecond, func() {
		rec.EmitSpan(1, LayerMedium, "tx", time.Millisecond)
		rec.Emit(2, LayerMAC, "cca-busy")
	})
	eng.Run()
	if empty := export(t, NewChromeTrace, nil); empty != "{\"traceEvents\":[]}\n" {
		t.Fatalf("empty chrome trace = %q", empty)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(export(t, NewChromeTrace, *got)), &doc); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	var meta, spans, instants int
	for _, e := range doc.TraceEvents {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			spans++
		case "i":
			instants++
		}
	}
	if meta == 0 || spans != 1 || instants != 1 {
		t.Fatalf("meta=%d spans=%d instants=%d", meta, spans, instants)
	}
}

func TestSummarizeCounts(t *testing.T) {
	_, rec := testRecorder()
	if got := rec.Summary(); got != "0 events\n" {
		t.Fatalf("empty summary: %q", got)
	}
	rec.Emit(1, LayerMAC, "enqueue")
	rec.Emit(1, LayerMAC, "enqueue")
	rec.Emit(2, LayerMedium, "tx")
	rec.Emit(2, "custom", "x") // counted, but not a listed layer
	want := "4 events (0s .. 0s)\n" +
		"  medium          1\n" +
		"    tx                    1\n" +
		"  mac             2\n" +
		"    enqueue               2\n"
	if s := rec.Summary(); s != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", s, want)
	}
}
