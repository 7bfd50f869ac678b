package telemetry

import (
	"fmt"
	"sort"
	"strings"

	"liteview/internal/sim"
)

// RingDepth is the size of the recorder's history ring, and of a
// subscription's ring when the subscriber names none.
const RingDepth = 1024

// SpanRows is how many of the newest command spans SpanSummary lists.
const SpanRows = 32

// summary is what a recorder keeps of its recording, all of it bounded:
// the newest RingDepth events, running counts per layer and kind, and
// the rendered rows of the newest SpanRows command spans. It is the
// recorder's first sink.
type summary struct {
	history     ring[Event]
	n           int
	first, last sim.Time
	kinds       map[layerKind]int

	// span is the command span whose events byLayer counts; rows holds
	// the rendered spans, spans counts them all.
	span    uint64
	byLayer map[Layer]int
	rows    ring[string]
	spans   int
}

type layerKind struct {
	layer Layer
	kind  string
}

func (s *summary) add(e *Event) {
	if s.n == 0 {
		s.history, s.rows = newRing[Event](RingDepth), newRing[string](SpanRows)
		s.first, s.kinds = e.At, make(map[layerKind]int)
	}
	s.history.push(*e)
	s.n++
	s.last = e.At
	s.kinds[layerKind{e.Layer, e.Kind}]++
	if e.Span == 0 {
		return
	}
	// Spans do not nest, so a span's events arrive together, before its
	// record.
	if e.Span != s.span {
		s.span, s.byLayer = e.Span, nil
	}
	if e.Layer == LayerSpan {
		s.rows.push(spanRow(e, s.byLayer))
		s.spans++
		return
	}
	if s.byLayer == nil {
		s.byLayer = make(map[Layer]int)
	}
	s.byLayer[e.Layer]++
}

// Len reports how many events the recorder has recorded.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.kept.n
}

// History hands the newest n recorded events (all RingDepth kept ones
// when n <= 0), oldest first, to s.
func (r *Recorder) History(n int, s Sink) { r.kept.history.newest(n, s) }

// Summary renders deterministic per-layer and per-kind counts of
// everything recorded — the quick "what happened" view of the shell's
// `trace summary`.
func (r *Recorder) Summary() string {
	s := &r.kept
	var b strings.Builder
	fmt.Fprintf(&b, "%d events", s.n)
	if s.n > 0 {
		fmt.Fprintf(&b, " (%s .. %s)", s.first, s.last)
	}
	b.WriteByte('\n')
	for _, l := range Layers() {
		var kinds []string
		total := 0
		for k, n := range s.kinds {
			if k.layer == l {
				kinds = append(kinds, k.kind)
				total += n
			}
		}
		if len(kinds) == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %6d\n", l, total)
		sort.Strings(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(&b, "    %-16s %6d\n", kind, s.kinds[layerKind{l, kind}])
		}
	}
	return b.String()
}

// SpanSummary renders a deterministic table of the recorded command
// spans — the shell's `trace spans` view: which commands ran, how long
// each took in virtual time, and how many events per layer each caused.
// It lists the newest SpanRows spans.
func (r *Recorder) SpanSummary() string {
	s := &r.kept
	var b strings.Builder
	fmt.Fprintf(&b, "%d command span(s)\n", s.spans)
	if older := s.spans - s.rows.n; older > 0 {
		fmt.Fprintf(&b, "  (%d older span(s) not kept)\n", older)
	}
	s.rows.newest(0, func(row *string) { b.WriteString(*row) })
	return b.String()
}

// spanRow renders one span's `trace spans` row from its LayerSpan
// record and the recorded events it stamped, per layer.
func spanRow(rec *Event, byLayer map[Layer]int) string {
	events := 0
	for _, n := range byLayer {
		events += n
	}
	verdict := ""
	if v, ok := rec.Attr("verdict"); ok {
		verdict = " verdict=" + v
	}
	dst := ""
	if v, ok := rec.Attr("dst"); ok {
		dst = " dst=" + v
	}
	var b strings.Builder
	fmt.Fprintf(&b, "  span %-3d %-12s node=%d%s%s at=%s dur=%s events=%d\n",
		rec.Span, rec.Kind, rec.NodeID, dst, verdict, rec.At, rec.Dur, events)
	if len(byLayer) > 0 {
		b.WriteString("     ")
		for _, l := range Layers() {
			if n, ok := byLayer[l]; ok {
				fmt.Fprintf(&b, " %s=%d", l, n)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}
