package telemetry

import (
	"fmt"
	"sort"
	"strings"
)

// SpanInfo pairs a completed command span's record with counts of the
// events stamped by it.
type SpanInfo struct {
	// Record is the LayerSpan event (Kind = command name, At = start,
	// Dur = extent, Span = the span's id).
	Record Event
	// Events counts the stream events stamped with this span's id,
	// excluding the record itself.
	Events int
	// ByLayer breaks Events down per emitting layer.
	ByLayer map[Layer]int
}

// Spans extracts every completed command span from an event stream in
// record order, counting the events each one covers.
func Spans(events []Event) []SpanInfo {
	counts := make(map[uint64]map[Layer]int)
	for i := range events {
		e := &events[i]
		if e.Span == 0 || e.Layer == LayerSpan {
			continue
		}
		m := counts[e.Span]
		if m == nil {
			m = make(map[Layer]int)
			counts[e.Span] = m
		}
		m[e.Layer]++
	}
	var out []SpanInfo
	for i := range events {
		e := &events[i]
		if e.Layer != LayerSpan {
			continue
		}
		info := SpanInfo{Record: *e, ByLayer: counts[e.Span]}
		for _, n := range info.ByLayer {
			info.Events += n
		}
		out = append(out, info)
	}
	return out
}

// SummarizeSpans renders a deterministic table of the command spans in
// the stream — the shell's `trace spans` view: which commands ran, how
// long each took in virtual time, and how many events per layer each
// caused.
func SummarizeSpans(events []Event) string {
	spans := Spans(events)
	var b strings.Builder
	fmt.Fprintf(&b, "%d command span(s)\n", len(spans))
	for _, s := range spans {
		verdict := ""
		if v, ok := s.Record.Attr("verdict"); ok {
			verdict = " verdict=" + v
		}
		dst := ""
		if v, ok := s.Record.Attr("dst"); ok {
			dst = " dst=" + v
		}
		fmt.Fprintf(&b, "  span %-3d %-12s node=%d%s%s at=%s dur=%s events=%d\n",
			s.Record.Span, s.Record.Kind, s.Record.NodeID, dst, verdict,
			s.Record.At, s.Record.Dur, s.Events)
		if len(s.ByLayer) > 0 {
			known := make(map[Layer]bool)
			parts := make([]string, 0, len(s.ByLayer))
			for _, l := range Layers() {
				known[l] = true
				if n, ok := s.ByLayer[l]; ok {
					parts = append(parts, fmt.Sprintf("%s=%d", l, n))
				}
			}
			var extra []string
			for l, n := range s.ByLayer {
				if !known[l] {
					extra = append(extra, fmt.Sprintf("%s=%d", l, n))
				}
			}
			sort.Strings(extra)
			parts = append(parts, extra...)
			fmt.Fprintf(&b, "      %s\n", strings.Join(parts, " "))
		}
	}
	return b.String()
}
