package telemetry_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// gridRun executes a fixed command script on a 20×20 grid and returns
// every observable byte: the packet trace CSV, the exported JSONL event
// stream, the metrics snapshot, and the medium stats.
func gridRun(t *testing.T, seed uint64) (traceCSV, jsonl, metrics, stats string) {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Grid(20, 20, 14, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	rec := tb.Telemetry()
	rec.Start()
	var buf strings.Builder
	stop := tb.RecordTrace(&buf)
	defer stop()
	tb.WarmUp(4 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2, Y: -2})
	if err != nil {
		t.Fatal(err)
	}
	ws.Ping(1, core.PingOptions{Dst: 22, Rounds: 2, Length: 32, RouterPort: routing.GeographicPort})
	tb.Run(time.Second)
	var jb strings.Builder
	if err := telemetry.WriteJSONL(&jb, rec.Events(), telemetry.Filter{}); err != nil {
		t.Fatal(err)
	}
	return buf.String(), jb.String(), rec.Metrics().String(), fmt.Sprintf("%+v", tb.Med.Stats())
}

// TestScaleDeterminismWithIndex is the medium-purity regression at
// scale: on a 400-node grid, seed 9 must reproduce byte for byte the
// telemetry (packet trace, event stream, metrics, medium stats) that the
// full-scan medium produced before candidate sets, link tables and
// cells replaced it. The digests were taken from that medium; the
// caches may only make the run faster, never different.
func TestScaleDeterminismWithIndex(t *testing.T) {
	tr, js, m, s := gridRun(t, 9)
	for _, c := range []struct{ name, got, want string }{
		{"packet trace", tr, "2f5e3e6683fbf279b3c50aff012c3b5cc4e5c0c8af3873a6bf13583b30a7eb0b"},
		{"telemetry event stream", js, "4bc9a6132d8aba35cfeb5a3515243897d5beff7e4d7f088c87f74eca91e3468a"},
		{"metrics snapshot", m, "0936704951c9435f2632ede3457482ad53458c0a21a8f92e6839418e0a484726"},
		{"medium stats", s, "e3cbf9e0d20796237287d861faf605adad7f2b09eb59888d374b93fc9318e4de"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.got))); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
	if len(strings.Split(tr, "\n")) < 10 {
		t.Fatalf("suspiciously empty trace:\n%s", tr)
	}
	if !strings.Contains(m, "link.") {
		t.Fatal("no per-link metrics recorded at scale")
	}
}
