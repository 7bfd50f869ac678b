package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"liteview/internal/phys"
)

// Filter selects a subset of an event stream. Zero value matches
// everything; each non-zero field is an AND condition.
type Filter struct {
	// Node keeps only events owned by this node (0 = any).
	Node phys.NodeID
	// Layer keeps only events from this layer ("" = any).
	Layer Layer
	// Kind keeps only events of this kind ("" = any).
	Kind string
	// Link is an "A-B" node-id pair; it keeps events whose from/to (or
	// src/dst) attributes — or owning node plus one of those — cover
	// both endpoints, in either direction ("" = any).
	Link string
	// Span keeps only events stamped with this command span id
	// (0 = any).
	Span uint64
}

// Match reports whether the event passes the filter.
func (f Filter) Match(e *Event) bool {
	if f.Node != 0 && e.NodeID != f.Node {
		return false
	}
	if f.Layer != "" && e.Layer != f.Layer {
		return false
	}
	if f.Kind != "" && e.Kind != f.Kind {
		return false
	}
	if f.Span != 0 && e.Span != f.Span {
		return false
	}
	if f.Link != "" {
		a, b, ok := strings.Cut(f.Link, "-")
		if !ok {
			return false
		}
		if !linkMatch(e, strings.TrimSpace(a), strings.TrimSpace(b)) {
			return false
		}
	}
	return true
}

// linkMatch reports whether the event involves both endpoints. The
// owning node and the from/to/src/dst/next attributes all count as
// involvement, direction-insensitively.
func linkMatch(e *Event, a, b string) bool {
	has := func(id string) bool {
		if strconv.FormatUint(uint64(e.NodeID), 10) == id {
			return true
		}
		for _, key := range [...]string{"from", "to", "src", "dst", "next"} {
			if v, ok := e.Attr(key); ok && v == id {
				return true
			}
		}
		return false
	}
	return has(a) && has(b)
}

// AppendJSONLine appends one event as a JSON object plus newline.
// Serialization is hand-rolled over the ordered attribute slice so
// output is byte-stable across runs.
func AppendJSONLine(b *strings.Builder, e *Event) {
	b.WriteString(`{"seq":`)
	b.WriteString(strconv.FormatUint(e.Seq, 10))
	b.WriteString(`,"us":`)
	b.WriteString(strconv.FormatInt(e.At.Microseconds(), 10))
	if e.Dur > 0 {
		b.WriteString(`,"dur_us":`)
		b.WriteString(strconv.FormatInt(e.Dur.Microseconds(), 10))
	}
	b.WriteString(`,"node":`)
	b.WriteString(strconv.FormatUint(uint64(e.NodeID), 10))
	b.WriteString(`,"layer":`)
	b.WriteString(strconv.Quote(string(e.Layer)))
	b.WriteString(`,"kind":`)
	b.WriteString(strconv.Quote(e.Kind))
	if e.Span != 0 {
		b.WriteString(`,"span":`)
		b.WriteString(strconv.FormatUint(e.Span, 10))
	}
	if len(e.Attrs) > 0 {
		b.WriteString(`,"attrs":{`)
		for j, a := range e.Attrs {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Quote(a.Key))
			b.WriteByte(':')
			b.WriteString(strconv.Quote(a.Val))
		}
		b.WriteByte('}')
	}
	b.WriteString("}\n")
}

// JSONLine renders one event as its JSONL representation without the
// trailing newline — the frame format the serve watch stream and the
// /streamz SSE endpoint forward verbatim.
func JSONLine(e *Event) string {
	var b strings.Builder
	AppendJSONLine(&b, e)
	return strings.TrimSuffix(b.String(), "\n")
}

// WriteJSONL writes one JSON object per line for each event.
func WriteJSONL(w io.Writer, events []Event) error {
	var b strings.Builder
	for i := range events {
		b.Reset()
		AppendJSONLine(&b, &events[i])
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// WriteTraceCSV writes the packet trace: a header, then one CSV row
// (start_us,end_us,from,channel,tx_dbm,bytes) per medium tx span, in
// transmit order. A span's At is the frame's start, At+Dur its end and
// its node the sender; its ch, dbm and bytes attributes give the rest.
// dbm carries two decimals and the trace one; every PA level's power is
// a multiple of 0.25 dBm, which two decimals hold exactly, so a row shows
// the medium's value rounded once.
func WriteTraceCSV(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	bw.WriteString("start_us,end_us,from,channel,tx_dbm,bytes\n")
	f := Filter{Layer: LayerMedium, Kind: "tx"}
	for i := range events {
		e := &events[i]
		if !f.Match(e) {
			continue
		}
		ch, _ := e.Attr("ch")
		n, _ := e.Attr("bytes")
		v, _ := e.Attr("dbm")
		dbm, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return fmt.Errorf("telemetry: tx span %d: dbm %q: %w", e.Seq, v, err)
		}
		fmt.Fprintf(bw, "%d,%d,%d,%s,%.1f,%s\n",
			e.At.Microseconds(), (e.At + e.Dur).Microseconds(), e.NodeID, ch, dbm, n)
	}
	return bw.Flush()
}

// WriteChromeTrace writes the events in Chrome trace-event
// JSON ({"traceEvents":[...]}), openable in chrome://tracing or
// Perfetto. Each node becomes a process (pid = node id) and each layer
// a named thread within it, so the timeline groups naturally. Span
// events (Dur > 0) become complete events ("X"); the rest become
// instants ("i").
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Metadata first: stable process/thread naming per (node, layer).
	nodes := make(map[phys.NodeID]bool)
	for i := range events {
		nodes[events[i].NodeID] = true
	}
	ids := make([]phys.NodeID, 0, len(nodes))
	for id := range nodes {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	tid := make(map[Layer]int, len(Layers()))
	for i, l := range Layers() {
		tid[l] = i + 1
	}

	var b strings.Builder
	b.WriteString(`{"traceEvents":[`)
	first := true
	item := func(s string) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(s)
	}
	for _, id := range ids {
		item(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":"node %d"}}`, id, id))
		for _, l := range Layers() {
			item(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%s}}`,
				id, tid[l], strconv.Quote(string(l))))
		}
	}
	for i := range events {
		e := &events[i]
		var ev strings.Builder
		if e.Dur > 0 {
			fmt.Fprintf(&ev, `{"ph":"X","ts":%d,"dur":%d`, e.At.Microseconds(), e.Dur.Microseconds())
		} else {
			fmt.Fprintf(&ev, `{"ph":"i","ts":%d,"s":"t"`, e.At.Microseconds())
		}
		fmt.Fprintf(&ev, `,"pid":%d,"tid":%d,"cat":%s,"name":%s`,
			e.NodeID, tid[e.Layer], strconv.Quote(string(e.Layer)), strconv.Quote(e.Kind))
		if len(e.Attrs) > 0 {
			ev.WriteString(`,"args":{`)
			for j, a := range e.Attrs {
				if j > 0 {
					ev.WriteByte(',')
				}
				ev.WriteString(strconv.Quote(a.Key))
				ev.WriteByte(':')
				ev.WriteString(strconv.Quote(a.Val))
			}
			ev.WriteByte('}')
		}
		ev.WriteByte('}')
		item(ev.String())
	}
	b.WriteString("]}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// Summarize renders deterministic per-layer and per-kind counts of the
// events — the quick "what happened" view of the shell's `trace
// summary`.
func Summarize(events []Event) string {
	type key struct {
		layer Layer
		kind  string
	}
	counts := make(map[key]int)
	layers := make(map[Layer]int)
	for i := range events {
		counts[key{events[i].Layer, events[i].Kind}]++
		layers[events[i].Layer]++
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d events", len(events))
	if len(events) > 0 {
		fmt.Fprintf(&b, " (%s .. %s)", events[0].At, events[len(events)-1].At)
	}
	b.WriteByte('\n')
	for _, l := range Layers() {
		n, ok := layers[l]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-10s %6d\n", l, n)
		kinds := make([]string, 0)
		for k := range counts {
			if k.layer == l {
				kinds = append(kinds, k.kind)
			}
		}
		sort.Strings(kinds)
		for _, kind := range kinds {
			fmt.Fprintf(&b, "    %-16s %6d\n", kind, counts[key{l, kind}])
		}
	}
	return b.String()
}
