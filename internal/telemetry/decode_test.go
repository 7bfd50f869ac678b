package telemetry

import (
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
	rec.Emit(1, LayerMedium, "rx", Float("dbm", -88.25), String("outcome", "delivered"))
	rec.EmitSpan(2, LayerMAC, "tx", 992*time.Microsecond, Int("len", 48), Node("to", 3))
	id := rec.BeginSpan(1, "ping", Node("dst", 2))
	rec.Emit(1, LayerRouting, "forward", Node("next", 2))
	rec.EndSpan(id, String("verdict", "ok"))

	var b strings.Builder
	if err := WriteJSONL(&b, rec.Events()); err != nil {
		t.Fatal(err)
	}
	first := b.String()
	decoded, err := ReadJSONL(strings.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != rec.Len() {
		t.Fatalf("decoded %d events, recorded %d", len(decoded), rec.Len())
	}
	var b2 strings.Builder
	if err := WriteJSONL(&b2, decoded); err != nil {
		t.Fatal(err)
	}
	// Hand-sort each original event's attrs before comparing bytes: the
	// decoder returns attrs key-sorted.
	sorted := rec.Events()
	for i := range sorted {
		attrs := append([]Attr(nil), sorted[i].Attrs...)
		for x := 1; x < len(attrs); x++ {
			for y := x; y > 0 && attrs[y-1].Key > attrs[y].Key; y-- {
				attrs[y-1], attrs[y] = attrs[y], attrs[y-1]
			}
		}
		sorted[i].Attrs = attrs
	}
	var b3 strings.Builder
	if err := WriteJSONL(&b3, sorted); err != nil {
		t.Fatal(err)
	}
	if b2.String() != b3.String() {
		t.Fatalf("re-encode diverged:\n--- decoded ---\n%s--- original (attr-sorted) ---\n%s",
			b2.String(), b3.String())
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
	id := rec.BeginSpan(9, "ping", Node("dst", 3))
	rec.Emit(1, LayerMAC, "sent")
	rec.Emit(1, LayerMAC, "acked")
	rec.Emit(2, LayerMedium, "rx")
	rec.EndSpan(id, String("verdict", "ok"))
	out := SummarizeSpans(rec.Events())
	for _, want := range []string{"1 command span(s)", "ping", "verdict=ok", "events=3", "mac=2", "medium=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
	if got := SummarizeSpans(nil); !strings.Contains(got, "0 command span(s)") {
		t.Fatalf("empty summary = %q", got)
	}
}
