package telemetry_test

import (
	"crypto/sha256"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// gridOut is every observable byte of one gridRun.
type gridOut struct {
	// traceCSV, jsonl and chrome are the run exported as the packet
	// trace, the event stream and the Chrome trace.
	traceCSV, jsonl, chrome string
	// summary and spans are the shell's `trace summary` and `trace
	// spans` text for the recording.
	summary, spans string
	// stats is the medium's final counters.
	stats string
}

// gridRun executes a fixed command script on a 20×20 grid and returns
// every observable byte.
func gridRun(t *testing.T, seed uint64) gridOut {
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
	var cb, jb, hb strings.Builder
	rec := tb.Telemetry()
	var finishes []func() error
	for _, out := range []struct {
		to     io.Writer
		format func(io.Writer) (telemetry.Sink, func() error)
	}{{&cb, telemetry.NewTraceCSV}, {&jb, telemetry.NewJSONL}, {&hb, telemetry.NewChromeTrace}} {
		sink, finish := out.format(out.to)
		rec.AddSink(sink)
		finishes = append(finishes, finish)
	}
	rec.Start()
	tb.WarmUp(4 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2, Y: -2})
	if err != nil {
		t.Fatal(err)
	}
	ws.Ping(1, core.PingOptions{Dst: 22, Rounds: 2, Length: 32, RouterPort: routing.GeographicPort})
	tb.Run(time.Second)
	for _, finish := range finishes {
		if err := finish(); err != nil {
			t.Fatal(err)
		}
	}
	return gridOut{traceCSV: cb.String(), jsonl: jb.String(), chrome: hb.String(),
		summary: rec.Summary(), spans: rec.SpanSummary(), stats: fmt.Sprintf("%+v", tb.Med.Stats())}
}

// TestScaleDeterminismWithIndex is the medium-purity regression at
// scale: on a 400-node grid, seed 9 must reproduce byte for byte the
// telemetry (packet trace, event stream, medium stats) that the
// full-scan medium produced before candidate sets, link tables and
// cells replaced it. The digests were taken from that medium; the
// caches may only make the run faster, never different. The Chrome
// trace, `trace summary` and `trace spans` digests were taken when the
// recorder still kept every event in memory; streaming exporters and
// running counters must render the same bytes.
func TestScaleDeterminismWithIndex(t *testing.T) {
	out := gridRun(t, 9)
	tr := out.traceCSV
	for _, c := range []struct{ name, got, want string }{
		{"packet trace", tr, "2f5e3e6683fbf279b3c50aff012c3b5cc4e5c0c8af3873a6bf13583b30a7eb0b"},
		{"telemetry event stream", out.jsonl, "4bc9a6132d8aba35cfeb5a3515243897d5beff7e4d7f088c87f74eca91e3468a"},
		{"Chrome trace", out.chrome, "7c41119601a2f54805d9ffc1971140d0edcd25ccc21a7070159074c46e147808"},
		{"trace summary", out.summary, "04d51a9cf9c967922ef8e6f59ec440047d29a0a8bf0bbad3d5d4d6a8978e38e9"},
		{"trace spans", out.spans, "875d693d799bee00a2354d5948dc958f53f99c6e85b00d488b2bf37f4bfc7cc6"},
		{"medium stats", out.stats, "e3cbf9e0d20796237287d861faf605adad7f2b09eb59888d374b93fc9318e4de"},
	} {
		if got := fmt.Sprintf("%x", sha256.Sum256([]byte(c.got))); got != c.want {
			t.Errorf("%s digest %s, want %s", c.name, got, c.want)
		}
	}
	if len(strings.Split(tr, "\n")) < 10 {
		t.Fatalf("suspiciously empty trace:\n%s", tr)
	}
}
