package telemetry_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/diagnose"
	"liteview/internal/fault"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// run is what one scriptedRun observes.
type run struct {
	// trace is the packet trace CSV exported from the recording ("" when
	// nothing was recorded).
	trace string
	// report is the diagnosis report.
	report string
	// stats is the medium's final counters, fired and now the engine's
	// fired-event count and clock at the end.
	stats string
	fired uint64
	now   time.Duration
	// events is the recorded stream (nil when nothing was recorded).
	events []telemetry.Event
}

// scriptedRun executes the same command script under the same fault
// schedule as the fault package's seed-determinism regression, with the
// telemetry recorder optionally wired in and recording. When live is
// true, a Subscription with a deliberately tiny ring is attached before
// the script and drained from a separate goroutine for the whole run —
// the live-observer configuration whose non-perturbation DESIGN §12
// promises.
func scriptedRun(t *testing.T, seed uint64, record, live bool) run {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(5, 20, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachGeographic(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	if _, err := tb.InstallLiteView(); err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(15 * time.Second)
	ws, err := tb.NewWorkstation(phys.Position{X: -2})
	if err != nil {
		t.Fatal(err)
	}
	var rec *telemetry.Recorder
	var events []telemetry.Event
	var csv strings.Builder
	traceSink, finishTrace := telemetry.NewTraceCSV(&csv)
	if record {
		rec = tb.Telemetry()
		rec.AddSink(func(e *telemetry.Event) { events = append(events, *e) })
		rec.AddSink(traceSink)
		rec.Start()
	}
	if live {
		// Tiny ring + concurrent consumer: drops are likely and harmless;
		// what must not happen is any effect on the simulation.
		sub := rec.Subscribe(telemetry.Filter{}, 8)
		stop := make(chan struct{})
		drained := make(chan struct{})
		go func() {
			defer close(drained)
			for {
				sub.Poll(0)
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
		defer func() {
			close(stop)
			<-drained
			sub.Close()
		}()
	}
	inj := tb.FaultInjector()
	if _, err := inj.Schedule(fault.Fault{At: inj.Now() + 100*time.Millisecond,
		Kind: fault.CorruptBurst, Node: 3, Prob: 0.6, Duration: 3 * time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Schedule(fault.Fault{At: inj.Now() + 500*time.Millisecond,
		Kind: fault.NodeCrash, Node: 4, Duration: 2 * time.Second}); err != nil {
		t.Fatal(err)
	}
	ws.Ping(1, core.PingOptions{Dst: 3, Rounds: 2, Length: 32, RouterPort: routing.GeographicPort})
	ws.Traceroute(1, core.TrOptions{Dst: 5, Length: 32, RouterPort: routing.GeographicPort})
	tb.Run(2 * time.Second)
	var targets []diagnose.Target
	for _, n := range tb.Nodes {
		targets = append(targets, diagnose.Target{ID: n.ID(), Name: n.Name(), Pos: n.Position()})
	}
	rep, err := diagnose.HealthCheck(ws, targets)
	if err != nil {
		t.Fatal(err)
	}
	r := run{report: rep.String(), stats: fmt.Sprintf("%+v", tb.Med.Stats()),
		fired: tb.Eng.Fired(), now: tb.Eng.Now(), events: events}
	if record {
		if err := finishTrace(); err != nil {
			t.Fatal(err)
		}
		r.trace = csv.String()
	}
	return r
}

// exportJSONL renders a recorded stream as JSONL.
func exportJSONL(t *testing.T, events []telemetry.Event) string {
	t.Helper()
	var b strings.Builder
	sink, finish := telemetry.NewJSONL(&b)
	for i := range events {
		sink(&events[i])
	}
	if err := finish(); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// plainTraceSHA256 is the digest of the packet trace seed 31's run
// writes. It was first recorded without telemetry, through the
// per-transmission tap the medium had before its telemetry became its
// only observer (c8c5076f…), and re-pinned when the health check became
// one health query per node. TestRecordingDoesNotPerturb still
// compares the plain and recorded runs directly as well.
const plainTraceSHA256 = "0e7e4e1023b70bcf8ec174b3f26529a1c992bedc62e72d8da46f04ce36fc3305"

// TestRecordingDoesNotPerturb is the tentpole's zero-perturbation
// proof: the same seeded run with telemetry recording enabled yields
// the same diagnosis report, medium counters, engine event count and
// clock as a run where the recorder was never created, and its exported
// packet trace is the one the run wrote without telemetry. Emission
// draws no randomness and schedules no events, so observation cannot
// change the experiment.
func TestRecordingDoesNotPerturb(t *testing.T) {
	plain := scriptedRun(t, 31, false, false)
	recd := scriptedRun(t, 31, true, false)
	if plain.report != recd.report {
		t.Fatalf("telemetry recording changed the diagnosis report:\n--- plain ---\n%s--- recorded ---\n%s",
			plain.report, recd.report)
	}
	if plain.stats != recd.stats {
		t.Fatalf("telemetry recording changed the medium counters: %s, recorded %s", plain.stats, recd.stats)
	}
	if plain.fired != recd.fired || plain.now != recd.now {
		t.Fatalf("telemetry recording changed the engine: %d events by %v, recorded %d by %v",
			plain.fired, plain.now, recd.fired, recd.now)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256([]byte(recd.trace))); got != plainTraceSHA256 {
		t.Fatalf("recorded packet trace digest %s, want %s (the trace without telemetry)", got, plainTraceSHA256)
	}
	// The run it didn't perturb must still have been observed in depth:
	// events from at least five distinct layers, faults included.
	layers := make(map[telemetry.Layer]bool)
	for _, e := range recd.events {
		layers[e.Layer] = true
	}
	if len(layers) < 5 {
		t.Fatalf("only %d layers observed: %v", len(layers), layers)
	}
	if !layers[telemetry.LayerFault] {
		t.Fatalf("fault transitions not recorded: %v", layers)
	}
}

// TestLiveSubscriberDoesNotPerturb extends the zero-perturbation proof
// to the streaming path: the same seeded run with a live subscriber
// attached — tiny ring, concurrent consumer, guaranteed contention —
// produces a byte-identical packet trace, diagnosis report, AND
// recorded event stream to the run without one. This is the contract
// that makes `lvctl watch`, /streamz, and `lvtopo -live` safe to point
// at a production tenant. Run under -race it is also the data-race
// proof for the subscription fan-out.
func TestLiveSubscriberDoesNotPerturb(t *testing.T) {
	plain := scriptedRun(t, 31, true, false)
	live := scriptedRun(t, 31, true, true)
	if plain.trace != live.trace {
		t.Fatal("a live subscriber changed the packet trace")
	}
	if plain.report != live.report {
		t.Fatal("a live subscriber changed the diagnosis report")
	}
	if exportJSONL(t, plain.events) != exportJSONL(t, live.events) {
		t.Fatal("a live subscriber changed the recorded event stream")
	}
}

// TestSpansEncloseMACTraffic is the span-model acceptance check: every
// ping and traceroute span in a recorded run carries at least one MAC
// transmission event stamped with its id — the trace can answer "which
// transmissions did this command cause".
func TestSpansEncloseMACTraffic(t *testing.T) {
	events := scriptedRun(t, 31, true, false).events
	macBySpan := make(map[uint64]int)
	for _, e := range events {
		if e.Layer == telemetry.LayerMAC && e.Span != 0 {
			macBySpan[e.Span]++
		}
	}
	var checked int
	for _, e := range events {
		if e.Layer != telemetry.LayerSpan || (e.Kind != "ping" && e.Kind != "traceroute") {
			continue
		}
		checked++
		if macBySpan[e.Span] == 0 {
			t.Errorf("span %d (%s) encloses no MAC events", e.Span, e.Kind)
		}
	}
	if checked < 2 {
		t.Fatalf("only %d ping/traceroute spans found; the script should produce at least 2", checked)
	}
}

// TestTelemetryStreamDeterminism asserts the event stream itself is
// reproducible: two recorded runs with the same seed export
// byte-identical JSONL, and a different seed produces a different
// stream.
func TestTelemetryStreamDeterminism(t *testing.T) {
	export := func(seed uint64) string {
		return exportJSONL(t, scriptedRun(t, seed, true, false).events)
	}
	a, b := export(33), export(33)
	if a != b {
		t.Fatal("same seed produced different telemetry streams")
	}
	if a == export(34) {
		t.Fatal("different seeds produced identical telemetry streams")
	}
}
