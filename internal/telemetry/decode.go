package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"liteview/internal/phys"
)

// jsonEvent mirrors the JSONL field layout appendJSONLine writes.
type jsonEvent struct {
	Seq   uint64            `json:"seq"`
	Us    int64             `json:"us"`
	DurUs int64             `json:"dur_us"`
	Node  uint64            `json:"node"`
	Layer string            `json:"layer"`
	Kind  string            `json:"kind"`
	Span  uint64            `json:"span"`
	Attrs map[string]string `json:"attrs"`
}

// ParseJSONLine decodes one JSONL event line (the format appendJSONLine
// writes). Attribute emission order is not preserved by JSON decoding,
// so decoded attrs are sorted by key — stable, though not necessarily
// the original order.
func ParseJSONLine(line []byte) (Event, error) {
	var je jsonEvent
	if err := json.Unmarshal(line, &je); err != nil {
		return Event{}, fmt.Errorf("telemetry: bad event line: %w", err)
	}
	if je.Layer == "" && je.Kind == "" {
		return Event{}, fmt.Errorf("telemetry: event line lacks layer and kind")
	}
	// Timestamps are microseconds converted to time.Duration
	// (nanoseconds); reject magnitudes the multiplication would wrap,
	// so decode(encode(e)) is a fixed point on every accepted line.
	const maxUs = int64(1<<63-1) / int64(time.Microsecond)
	if je.Us > maxUs || je.Us < -maxUs || je.DurUs > maxUs || je.DurUs < -maxUs {
		return Event{}, fmt.Errorf("telemetry: event timestamp out of range (us=%d dur_us=%d)", je.Us, je.DurUs)
	}
	e := Event{
		Seq:    je.Seq,
		At:     time.Duration(je.Us) * time.Microsecond,
		Dur:    time.Duration(je.DurUs) * time.Microsecond,
		NodeID: phys.NodeID(je.Node),
		Layer:  Layer(je.Layer),
		Kind:   je.Kind,
		Span:   je.Span,
	}
	if len(je.Attrs) > 0 {
		e.Attrs = make([]Attr, 0, len(je.Attrs))
		for _, k := range sortedKeys(je.Attrs) {
			e.Attrs = append(e.Attrs, Attr{Key: k, Val: je.Attrs[k]})
		}
	}
	return e, nil
}

// ReadJSONL decodes a whole JSONL stream, skipping blank lines. The
// virtual timestamps come back as sim.Time offsets, so a decoded trace
// replays against the same clock arithmetic the live stream uses.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var out []Event
	for line := 1; sc.Scan(); line++ {
		if len(bytes.Trim(sc.Bytes(), " \t\r")) == 0 {
			continue
		}
		e, err := ParseJSONLine(sc.Bytes())
		if err != nil {
			return out, fmt.Errorf("line %d: %w", line, err)
		}
		out = append(out, e)
	}
	return out, sc.Err()
}
