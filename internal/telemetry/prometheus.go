package telemetry

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format: `# HELP` and `# TYPE` headers per family,
// `_bucket{le="..."}` / `_sum` / `_count` series for histograms.
// Families are emitted counters-then-gauges-then-histograms, each in
// sorted name order, so output is byte-stable — asserted by the
// ordering regression test.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b strings.Builder

	for _, name := range sortedKeys(r.counters) {
		pn := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteView counter %s\n", pn, name)
		fmt.Fprintf(&b, "# TYPE %s counter\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promValue(float64(r.counters[name].v)))
	}

	for _, name := range sortedKeys(r.gauges) {
		pn := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteView gauge %s\n", pn, name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n", pn)
		fmt.Fprintf(&b, "%s %s\n", pn, promValue(r.gauges[name].v))
	}

	for _, name := range sortedKeys(r.hists) {
		h := r.hists[name]
		pn := promName(name)
		fmt.Fprintf(&b, "# HELP %s LiteView histogram %s\n", pn, name)
		fmt.Fprintf(&b, "# TYPE %s histogram\n", pn)
		// Internal bucket counts are per-bucket; Prometheus buckets are
		// cumulative, so accumulate while emitting.
		bounds, counts := h.Buckets()
		var cum uint64
		for i, bound := range bounds {
			cum += counts[i]
			le := "+Inf"
			if !math.IsInf(bound, 1) {
				le = promValue(bound)
			}
			fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", pn, le, cum)
		}
		fmt.Fprintf(&b, "%s_sum %s\n", pn, promValue(h.sum))
		fmt.Fprintf(&b, "%s_count %d\n", pn, h.count)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a dotted registry name onto the Prometheus metric-name
// alphabet [a-zA-Z0-9_:], with a leading underscore shielding names
// that would otherwise start with a digit.
func promName(name string) string {
	var b strings.Builder
	for i, c := range name {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if c >= '0' && c <= '9' && i == 0 {
			b.WriteByte('_')
			b.WriteRune(c)
			continue
		}
		if ok {
			b.WriteRune(c)
		} else {
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promValue formats a sample value: integers bare, floats with full
// round-trip precision (Prometheus parses either).
func promValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
