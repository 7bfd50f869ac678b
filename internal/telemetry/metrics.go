package telemetry

import (
	"cmp"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Counter is a monotonically increasing count.
type Counter struct{ v uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v++ }

// Add increases the counter by n.
func (c *Counter) Add(n uint64) { c.v += n }

// Gauge is a value that can move both ways (active sessions, tenants).
type Gauge struct{ v float64 }

// Add shifts the gauge by d (negative to decrease).
func (g *Gauge) Add(d float64) { g.v += d }

// Histogram accumulates a distribution with explicit bucket bounds.
// Buckets count observations <= bound; observations beyond the last
// bound land in the implicit overflow bucket.
type Histogram struct {
	bounds []float64
	counts []uint64 // len(bounds)+1; last is overflow
	count  uint64
	sum    float64
	min    float64
	max    float64
}

// DefaultRTTBucketsMs are histogram bounds suited to simulated ping
// round-trip times (milliseconds).
func DefaultRTTBucketsMs() []float64 {
	return []float64{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000}
}

// DefaultReplayBucketsMs are histogram bounds suited to journal replay
// durations (milliseconds): a resurrection re-executes a whole command
// history, so the tail runs orders of magnitude past a single RTT.
func DefaultReplayBucketsMs() []float64 {
	return []float64{5, 20, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 30000, 60000}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Buckets returns the (bound, cumulative-count) pairs plus the overflow
// count as the final entry with bound = +Inf.
func (h *Histogram) Buckets() ([]float64, []uint64) {
	bounds := append(append([]float64(nil), h.bounds...), math.Inf(1))
	counts := append([]uint64(nil), h.counts...)
	return bounds, counts
}

// Registry is a namespace of metrics, get-or-create by name. Names are
// dotted paths ("serve.cmd_ms", "serve.tenants.active").
// All accessors are deterministic: iteration for snapshots happens in
// sorted name order.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use.
// Nil-safe: a nil registry returns a throwaway counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Nil-safe.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given
// bucket bounds on first use (bounds are ignored on later calls; pass
// sorted ascending bounds). Nil-safe.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
	}
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{bounds: append([]float64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1)}
		r.hists[name] = h
	}
	return h
}

// Snapshot flattens every metric to named scalar values: counters and
// gauges under their own name, histograms expanded to
// name.count/.sum/.min/.max/.mean. The map is a copy; mutate freely.
func (r *Registry) Snapshot() map[string]float64 {
	snap := make(map[string]float64)
	if r == nil {
		return snap
	}
	for name, c := range r.counters {
		snap[name] = float64(c.v)
	}
	for name, g := range r.gauges {
		snap[name] = g.v
	}
	for name, h := range r.hists {
		snap[name+".count"] = float64(h.count)
		snap[name+".sum"] = h.sum
		// min/max/mean only exist once something was observed: before
		// the first sample min and max hold 0, which a snapshot must not
		// confuse with a real zero-valued sample.
		if h.count > 0 {
			snap[name+".min"] = h.min
			snap[name+".max"] = h.max
			snap[name+".mean"] = h.sum / float64(h.count)
		}
	}
	return snap
}

// FormatSnapshot renders a snapshot as "name value" lines in sorted
// name order — the deterministic text form used by the shell and by
// per-experiment artifacts.
func FormatSnapshot(snap map[string]float64) string {
	var b strings.Builder
	for _, k := range sortedKeys(snap) {
		b.WriteString(k)
		b.WriteByte(' ')
		b.WriteString(formatValue(snap[k]))
		b.WriteByte('\n')
	}
	return b.String()
}

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// formatValue prints integers without a fraction and floats with up to
// three decimals, trimmed — compact and byte-stable.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.FormatInt(int64(v), 10)
	}
	s := strconv.FormatFloat(v, 'f', 3, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}
