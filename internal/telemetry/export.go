package telemetry

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"

	"liteview/internal/phys"
)

// appendJSONLine appends one event as a JSON object plus newline.
// Serialization is hand-rolled over the ordered attribute slice so
// output is byte-stable across runs.
func appendJSONLine(b []byte, e *Event) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), e.Seq, 10)
	b = strconv.AppendInt(append(b, `,"us":`...), e.At.Microseconds(), 10)
	if e.Dur > 0 {
		b = strconv.AppendInt(append(b, `,"dur_us":`...), e.Dur.Microseconds(), 10)
	}
	b = strconv.AppendUint(append(b, `,"node":`...), uint64(e.NodeID), 10)
	b = strconv.AppendQuote(append(b, `,"layer":`...), string(e.Layer))
	b = strconv.AppendQuote(append(b, `,"kind":`...), e.Kind)
	if e.Span != 0 {
		b = strconv.AppendUint(append(b, `,"span":`...), e.Span, 10)
	}
	return append(appendAttrs(b, `,"attrs":`, e.Attrs), "}\n"...)
}

// appendAttrs appends the attributes as a JSON object after name, in
// emission order; nothing when there are none.
func appendAttrs(b []byte, name string, attrs []Attr) []byte {
	if len(attrs) == 0 {
		return b
	}
	b = append(append(b, name...), '{')
	for i, a := range attrs {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendQuote(b, a.Key)
		b = strconv.AppendQuote(append(b, ':'), a.Val)
	}
	return append(b, '}')
}

// JSONLine renders one event as its JSONL representation without the
// trailing newline — the frame format the serve watch stream and the
// /streamz SSE endpoint forward verbatim.
func JSONLine(e *Event) string {
	b := appendJSONLine(nil, e)
	return string(b[:len(b)-1])
}

// The exporters below each return a Sink that writes one trace format
// to w as events happen, and the finish function that ends the file
// and reports the first error. A write or format error never reaches
// the simulation: the sink stops writing until finish. finish does not
// close w.

// NewJSONL streams one JSON object per line for each event.
func NewJSONL(w io.Writer) (Sink, func() error) {
	bw := bufio.NewWriter(w)
	var line []byte
	return func(e *Event) {
		line = appendJSONLine(line[:0], e)
		bw.Write(line) // bw keeps a failed write's error for Flush
	}, bw.Flush
}

// NewTraceCSV streams the packet trace: a header, then one CSV row
// (start_us,end_us,from,channel,tx_dbm,bytes) per medium tx span, in
// transmit order. A span's At is the frame's start, At+Dur its end and
// its node the sender; its ch, dbm and bytes attributes give the rest.
// dbm carries two decimals and the trace one; every PA level's power is
// a multiple of 0.25 dBm, which two decimals hold exactly, so a row shows
// the medium's value rounded once.
func NewTraceCSV(w io.Writer) (Sink, func() error) {
	bw := bufio.NewWriter(w)
	bw.WriteString("start_us,end_us,from,channel,tx_dbm,bytes\n")
	var err error
	sink := func(e *Event) {
		if e.Layer != LayerMedium || e.Kind != "tx" || err != nil {
			return
		}
		ch, _ := e.Attr("ch")
		n, _ := e.Attr("bytes")
		v, _ := e.Attr("dbm")
		dbm, perr := strconv.ParseFloat(v, 64)
		if perr != nil {
			err = fmt.Errorf("telemetry: tx span %d: dbm %q: %w", e.Seq, v, perr)
			return
		}
		fmt.Fprintf(bw, "%d,%d,%d,%s,%.1f,%s\n",
			e.At.Microseconds(), (e.At + e.Dur).Microseconds(), e.NodeID, ch, dbm, n)
	}
	return sink, func() error { return errors.Join(err, bw.Flush()) }
}

// NewChromeTrace streams the events as Chrome trace-event JSON
// ({"traceEvents":[...]}), openable in chrome://tracing or Perfetto.
// Each node becomes a process (pid = node id) and each layer a named
// thread within it (tid = 1 + its place in Layers), so the timeline
// groups naturally. Span events (Dur > 0) become complete events
// ("X"); the rest become instants ("i"). The process and thread names
// come first and need every node, so the rendered events are held
// until finish.
func NewChromeTrace(w io.Writer) (Sink, func() error) {
	layers := Layers()
	nodes := make(map[phys.NodeID]bool)
	var items []byte // the rendered events, each after a comma
	sink := func(e *Event) {
		nodes[e.NodeID] = true
		if e.Dur > 0 {
			items = fmt.Appendf(items, `,{"ph":"X","ts":%d,"dur":%d`, e.At.Microseconds(), e.Dur.Microseconds())
		} else {
			items = fmt.Appendf(items, `,{"ph":"i","ts":%d,"s":"t"`, e.At.Microseconds())
		}
		items = fmt.Appendf(items, `,"pid":%d,"tid":%d,"cat":%s,"name":%s`,
			e.NodeID, slices.Index(layers, e.Layer)+1, strconv.Quote(string(e.Layer)), strconv.Quote(e.Kind))
		items = append(appendAttrs(items, `,"args":`, e.Attrs), '}')
	}
	finish := func() error {
		bw := bufio.NewWriter(w)
		bw.WriteString(`{"traceEvents":[`)
		for i, id := range sortedKeys(nodes) {
			if i > 0 {
				bw.WriteByte(',')
			}
			fmt.Fprintf(bw, `{"ph":"M","pid":%d,"name":"process_name","args":{"name":"node %d"}}`, id, id)
			for i, l := range layers {
				fmt.Fprintf(bw, `,{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
					id, i+1, strconv.Quote(string(l)))
			}
		}
		bw.Write(items)
		bw.WriteString("]}\n")
		return bw.Flush()
	}
	return sink, finish
}
