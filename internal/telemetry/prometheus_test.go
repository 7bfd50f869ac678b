package telemetry

import (
	"strings"
	"testing"
)

func TestWritePrometheusOrderAndFamilies(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.commands.total").Add(3)
	r.Counter("mac.tx").Inc()
	r.Gauge("serve.sessions.active").Add(2)
	h := r.Histogram("serve.cmd_ms", []float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()

	// Families in deterministic order: counters, gauges, histograms,
	// each name-sorted; the same registry always renders the same bytes.
	var b2 strings.Builder
	if err := r.WritePrometheus(&b2); err != nil {
		t.Fatal(err)
	}
	if out != b2.String() {
		t.Fatal("two renders of the same registry differ")
	}
	idx := func(s string) int { return strings.Index(out, s) }
	if !(idx("mac_tx") < idx("serve_commands_total")) {
		t.Fatalf("counters not name-sorted:\n%s", out)
	}
	if !(idx("serve_commands_total") < idx("serve_sessions_active")) {
		t.Fatalf("gauges not after counters:\n%s", out)
	}
	if !(idx("serve_sessions_active") < idx("serve_cmd_ms_bucket")) {
		t.Fatalf("histograms not last:\n%s", out)
	}

	for _, want := range []string{
		"# HELP mac_tx LiteView counter mac.tx",
		"# TYPE mac_tx counter",
		"mac_tx 1",
		"# TYPE serve_sessions_active gauge",
		"serve_sessions_active 2",
		"# TYPE serve_cmd_ms histogram",
		`serve_cmd_ms_bucket{le="1"} 1`,
		`serve_cmd_ms_bucket{le="10"} 2`,
		`serve_cmd_ms_bucket{le="+Inf"} 3`,
		"serve_cmd_ms_sum 55.5",
		"serve_cmd_ms_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusNameSanitization(t *testing.T) {
	r := NewRegistry()
	r.Counter("serve.errors.queue-full").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "serve_errors_queue_full 1") {
		t.Fatalf("name not sanitized:\n%s", b.String())
	}
}

func TestWritePrometheusNilAndEmpty(t *testing.T) {
	var r *Registry
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("nil registry wrote %q", b.String())
	}
	if err := NewRegistry().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Fatalf("empty registry wrote %q", b.String())
	}
}

func TestHistogramSnapshotOmitsMinMaxWhenEmpty(t *testing.T) {
	r := NewRegistry()
	r.Histogram("rtt", []float64{1, 10}) // created, never observed
	snap := r.Snapshot()
	for _, k := range []string{"rtt.min", "rtt.max", "rtt.mean"} {
		if _, ok := snap[k]; ok {
			t.Fatalf("empty histogram leaked %s into the snapshot: %v", k, snap)
		}
	}
	if snap["rtt.count"] != 0 {
		t.Fatalf("rtt.count = %v, want 0", snap["rtt.count"])
	}
	r.Histogram("rtt", nil).Observe(4)
	snap = r.Snapshot()
	if snap["rtt.min"] != 4 || snap["rtt.max"] != 4 || snap["rtt.mean"] != 4 {
		t.Fatalf("observed histogram stats wrong: %v", snap)
	}
}
