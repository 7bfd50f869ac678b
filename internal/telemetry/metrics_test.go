package telemetry

import (
	"math"
	"strings"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("tx")
	c.Inc()
	c.Add(4)
	if r.Counter("tx") != c {
		t.Fatal("second lookup made a new counter")
	}
	g := r.Gauge("depth")
	g.Add(3)
	g.Add(-1)
	if snap := r.Snapshot(); snap["tx"] != 5 || snap["depth"] != 2 {
		t.Fatalf("counter = %v, gauge = %v, want 5 and 2", snap["tx"], snap["depth"])
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("rtt", []float64{1, 10, 100})
	if r.Snapshot()["rtt.count"] != 0 {
		t.Fatal("empty histogram not empty")
	}
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	snap := r.Snapshot()
	if snap["rtt.count"] != 4 || snap["rtt.sum"] != 555.5 {
		t.Fatalf("count=%v sum=%v", snap["rtt.count"], snap["rtt.sum"])
	}
	if snap["rtt.min"] != 0.5 || snap["rtt.max"] != 500 {
		t.Fatalf("min=%v max=%v", snap["rtt.min"], snap["rtt.max"])
	}
	if got := snap["rtt.mean"]; math.Abs(got-138.875) > 1e-9 {
		t.Fatalf("mean = %v", got)
	}
	bounds, counts := h.Buckets()
	if len(counts) != len(bounds) || !math.IsInf(bounds[len(bounds)-1], 1) {
		t.Fatalf("bounds %v, %d counts", bounds, len(counts))
	}
	for i, want := range []uint64{1, 1, 1, 1} { // one per bucket incl. overflow
		if counts[i] != want {
			t.Fatalf("bucket %d = %d, want %d", i, counts[i], want)
		}
	}
	if len(DefaultRTTBucketsMs()) == 0 {
		t.Fatal("no default RTT buckets")
	}
}

func TestSnapshotAndDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("a").Inc()
	r.Gauge("g").Add(1.5)
	r.Histogram("h", []float64{10}).Observe(4)
	snap := r.Snapshot()
	if snap["a"] != 1 || snap["g"] != 1.5 {
		t.Fatalf("snapshot: %v", snap)
	}
	for _, k := range []string{"h.count", "h.sum", "h.min", "h.max", "h.mean"} {
		if _, ok := snap[k]; !ok {
			t.Fatalf("snapshot missing %s: %v", k, snap)
		}
	}
	// A snapshot is a copy: two of them diff to what moved in between.
	r.Counter("a").Add(2)
	next := r.Snapshot()
	if d := next["a"] - snap["a"]; d != 2 || snap["a"] != 1 {
		t.Fatalf("diff a = %v (first snapshot a = %v)", d, snap["a"])
	}
	if next["g"] != snap["g"] {
		t.Fatalf("unchanged gauge moved: %v → %v", snap["g"], next["g"])
	}
}

func TestFormatSnapshotSortedAndTrimmed(t *testing.T) {
	s := FormatSnapshot(map[string]float64{"b": 2, "a": 1.25, "c": 3.14159})
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	if len(lines) != 3 || !strings.HasPrefix(lines[0], "a ") || !strings.HasPrefix(lines[2], "c ") {
		t.Fatalf("format:\n%s", s)
	}
	if !strings.Contains(s, "b 2\n") { // integral values print without a fraction
		t.Fatalf("integer formatting:\n%s", s)
	}
	if !strings.Contains(s, "c 3.142") { // floats get three decimals
		t.Fatalf("float formatting:\n%s", s)
	}
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").Add(1)
	r.Histogram("z", nil).Observe(1)
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry has a non-empty snapshot")
	}
}
