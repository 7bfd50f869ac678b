package telemetry

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestParseJSONLineRoundTrip(t *testing.T) {
	e := Event{
		Seq: 42, At: 1500 * time.Millisecond, Dur: 3 * time.Millisecond,
		NodeID: 7, Layer: LayerMAC, Kind: "sent", Span: 9,
		Attrs: []Attr{Node("dst", 3), Int("tries", 2)},
	}
	got, err := ParseJSONLine([]byte(JSONLine(&e)))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != e.Seq || got.At != e.At || got.Dur != e.Dur ||
		got.NodeID != e.NodeID || got.Layer != e.Layer ||
		got.Kind != e.Kind || got.Span != e.Span {
		t.Fatalf("round trip changed the event: %+v -> %+v", e, got)
	}
	if v, ok := got.Attr("dst"); !ok || v != "3" {
		t.Fatalf("attr dst lost: %+v", got.Attrs)
	}
	if v, ok := got.Attr("tries"); !ok || v != "2" {
		t.Fatalf("attr tries lost: %+v", got.Attrs)
	}
}

// TestJSONLRoundTripStable: decode(encode(events)) re-encodes to the
// identical bytes. Attrs come back key-sorted (the JSON map loses
// order), so the assertion uses events whose attrs are already sorted.
func TestJSONLRoundTripStable(t *testing.T) {
	_, rec := testRecorder()
	got := collect(rec)
	rec.Emit(1, LayerMedium, "rx", Float("dbm", -88.25), String("outcome", "delivered"))
	rec.EmitSpan(2, LayerMAC, "tx", 992*time.Microsecond, Int("len", 48), Node("to", 3))
	id := rec.BeginSpan(1, "ping", Node("dst", 2))
	rec.Emit(1, LayerRouting, "forward", Node("next", 2))
	rec.EndSpan(id, String("verdict", "ok"))

	first := export(t, NewJSONL, *got)
	decoded, err := ReadJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != rec.Len() {
		t.Fatalf("decoded %d events, recorded %d", len(decoded), rec.Len())
	}
	b2 := export(t, NewJSONL, decoded)
	// Hand-sort each original event's attrs before comparing bytes: the
	// decoder returns attrs key-sorted.
	sorted := *got
	for i := range sorted {
		attrs := append([]Attr(nil), sorted[i].Attrs...)
		for x := 1; x < len(attrs); x++ {
			for y := x; y > 0 && attrs[y-1].Key > attrs[y].Key; y-- {
				attrs[y-1], attrs[y] = attrs[y], attrs[y-1]
			}
		}
		sorted[i].Attrs = attrs
	}
	if b3 := export(t, NewJSONL, sorted); b2 != b3 {
		t.Fatalf("re-encode diverged:\n--- decoded ---\n%s--- original (attr-sorted) ---\n%s", b2, b3)
	}
}

func TestReadJSONLSkipsBlanksAndReportsLine(t *testing.T) {
	in := "{\"seq\":1,\"us\":0,\"node\":1,\"layer\":\"mac\",\"kind\":\"tx\"}\n\n" +
		"{\"seq\":2,\"us\":5,\"node\":2,\"layer\":\"mac\",\"kind\":\"rx\"}\n"
	events, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	if _, err := ReadJSONL(strings.NewReader("{\"seq\":1,\"us\":0,\"node\":1,\"layer\":\"mac\",\"kind\":\"tx\"}\nnot json\n")); err == nil {
		t.Fatal("bad line did not error")
	} else if !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("error lacks the line number: %v", err)
	}
}

func TestSummarizeSpans(t *testing.T) {
	_, rec := testRecorder()
	if got := rec.SpanSummary(); got != "0 command span(s)\n" {
		t.Fatalf("empty summary = %q", got)
	}
	id := rec.BeginSpan(9, "ping", Node("dst", 3))
	rec.Emit(1, LayerMAC, "sent")
	rec.Emit(1, LayerMAC, "acked")
	rec.Emit(2, LayerMedium, "rx")
	rec.EndSpan(id, String("verdict", "ok"))
	want := "1 command span(s)\n" +
		"  span 1   ping         node=9 dst=3 verdict=ok at=0s dur=0s events=3\n" +
		"      medium=1 mac=2\n"
	if out := rec.SpanSummary(); out != want {
		t.Fatalf("summary:\n%s\nwant:\n%s", out, want)
	}
	// Past SpanRows, the newest rows stay and the count says how many
	// went.
	for i := 0; i < SpanRows+2; i++ {
		rec.EndSpan(rec.BeginSpan(9, "ls"))
	}
	out := rec.SpanSummary()
	if !strings.HasPrefix(out, fmt.Sprintf("%d command span(s)\n  (3 older span(s) not kept)\n  span 4 ", SpanRows+3)) ||
		strings.Count(out, "  span ") != SpanRows {
		t.Fatalf("bounded summary:\n%s", out)
	}
}
