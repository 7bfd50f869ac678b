package telemetry

import (
	"encoding/json"
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

func TestSequenceAndClockStamping(t *testing.T) {
	eng, rec := testRecorder()
	rec.Emit(1, LayerMAC, "first")
	eng.Schedule(time.Second, func() {
		rec.EmitSpan(2, LayerMedium, "second", 3*time.Millisecond, Int("x", 7))
	})
	eng.Run()
	rec.Emit(3, LayerRouting, "third")
	es := rec.Events()
	if len(es) != 3 {
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
	if nilRec.Len() != 0 || nilRec.Events() != nil {
		t.Fatal("nil recorder holds events")
	}
	nilRec.Metrics().Counter("x").Inc() // throwaway, must not panic
	nilRec.Clear()
}

func TestClearKeepsSequenceCounting(t *testing.T) {
	_, rec := testRecorder()
	rec.Emit(1, LayerMAC, "a")
	rec.Emit(1, LayerMAC, "b")
	rec.Clear()
	if rec.Len() != 0 {
		t.Fatal("clear kept events")
	}
	rec.Emit(1, LayerMAC, "c")
	if got := rec.Events()[0].Seq; got != 3 {
		t.Fatalf("seq after clear = %d, want 3", got)
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
		{"port", Filter{Port: 10}, []uint64{3}},
		{"link forward", Filter{Link: "2-1"}, []uint64{1}},
		{"link reversed", Filter{Link: "1-2"}, []uint64{1}},
		{"link via next attr", Filter{Link: "5-6"}, []uint64{3}},
		{"link misses", Filter{Link: "7-8"}, nil},
		{"conjunction", Filter{Node: 3, Kind: "rx"}, nil},
	}
	for _, c := range cases {
		got := Select(es, c.f)
		var seqs []uint64
		for _, e := range got {
			seqs = append(seqs, e.Seq)
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

func TestWriteJSONLRoundTrips(t *testing.T) {
	eng, rec := testRecorder()
	eng.Schedule(time.Millisecond, func() {
		rec.EmitSpan(2, LayerMedium, "tx", 500*time.Microsecond, Int("ch", 17), String("note", `q"uote`))
		rec.Emit(3, LayerMAC, "bare")
	})
	eng.Run()
	var b strings.Builder
	if err := WriteJSONL(&b, rec.Events(), Filter{}); err != nil {
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
	eng.Schedule(time.Millisecond, func() {
		rec.EmitSpan(1, LayerMedium, "tx", time.Millisecond)
		rec.Emit(2, LayerMAC, "cca-busy")
	})
	eng.Run()
	var b strings.Builder
	if err := WriteChromeTrace(&b, rec.Events(), Filter{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
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
	rec.Emit(1, LayerMAC, "enqueue")
	rec.Emit(1, LayerMAC, "enqueue")
	rec.Emit(2, LayerMedium, "tx")
	s := Summarize(rec.Events(), Filter{})
	if !strings.Contains(s, "3 events") ||
		!strings.Contains(s, "mac") || !strings.Contains(s, "enqueue") {
		t.Fatalf("summary:\n%s", s)
	}
	if got := Summarize(nil, Filter{}); !strings.Contains(got, "0 events") {
		t.Fatalf("empty summary: %q", got)
	}
}
