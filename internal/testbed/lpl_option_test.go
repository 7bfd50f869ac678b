package testbed

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/radio"
	"liteview/internal/routing"
	"liteview/internal/telemetry"
)

func TestLPLOptionDutyCyclesNodes(t *testing.T) {
	opt := DefaultOptions(91)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	opt.LPL = true
	opt.BeaconPeriod = 10 * time.Second
	tb, err := Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(30 * time.Second)
	// A duty-cycled idle node spends most of its time with the radio
	// off.
	st := tb.Node(1).Energy().Stats()
	if st.OffTime < st.RXTime {
		t.Fatalf("LPL node mostly awake: %+v", st)
	}
}

func TestBeaconPeriodOption(t *testing.T) {
	opt := DefaultOptions(92)
	opt.BeaconPeriod = 7 * time.Second
	tb, err := Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	if got := tb.Node(0).Neighbors().Period(); got != 7*time.Second {
		t.Fatalf("beacon period = %v", got)
	}
}

func TestAlwaysOnDefaultStaysAwake(t *testing.T) {
	opt := DefaultOptions(93)
	tb, err := Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	tb.WarmUp(10 * time.Second)
	if tb.Node(0).Radio().State() == radio.Off {
		t.Fatal("always-on node slept")
	}
	st := tb.Node(0).Energy().Stats()
	if st.OffTime != 0 {
		t.Fatalf("always-on node accrued off time: %+v", st)
	}
}

func TestAttachOnDemandOption(t *testing.T) {
	opt := DefaultOptions(94)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := Line(3, 15, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := tb.AttachOnDemand(routing.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, ok := tb.Router(routing.OnDemandPort, phys.NodeID(i)); !ok {
			t.Fatalf("on-demand router missing at node %d", i)
		}
	}
}

func TestRunAdvancesClock(t *testing.T) {
	opt := DefaultOptions(95)
	tb, err := Line(1, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	before := tb.Eng.Now()
	tb.Run(3 * time.Second)
	if tb.Eng.Now()-before != 3*time.Second {
		t.Fatalf("Run advanced %v", tb.Eng.Now()-before)
	}
}

// TestRecordTrace records a deployment's packet trace the way
// liteview -trace does, through the testbed's telemetry recorder and
// the CSV exporter: the header, then one row per medium tx span — every
// transmission made while the recorder ran, none after Stop — whose
// extent is the frame's airtime and whose power is 0 dBm at the default
// full PA level.
func TestRecordTrace(t *testing.T) {
	opt := DefaultOptions(96)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := Line(2, 10, opt)
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	sink, finish := telemetry.NewTraceCSV(&buf)
	var events []telemetry.Event
	rec := tb.Telemetry()
	rec.AddSink(sink)
	rec.AddSink(func(e *telemetry.Event) { events = append(events, *e) })
	trace := func() string {
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	rec.Start()
	tb.WarmUp(10 * time.Second)
	rec.Stop()
	got := trace()
	lines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	if lines[0] != "start_us,end_us,from,channel,tx_dbm,bytes" {
		t.Fatalf("header = %q", lines[0])
	}
	rows, sent := lines[1:], tb.Med.Stats().Transmitted
	var spans []telemetry.Event
	for _, e := range events {
		if e.Layer == telemetry.LayerMedium && e.Kind == "tx" {
			spans = append(spans, e)
		}
	}
	if len(rows) != len(spans) || uint64(len(rows)) != sent || len(rows) < 2 {
		t.Fatalf("%d rows for %d tx spans and %d transmissions", len(rows), len(spans), sent)
	}
	for i, row := range rows {
		f := strings.Split(row, ",")
		if len(f) != 6 {
			t.Fatalf("row %d = %q", i, row)
		}
		num := func(s string) int64 {
			v, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				t.Fatalf("row %d = %q: %v", i, row, err)
			}
			return v
		}
		start, end, from, bytes := num(f[0]), num(f[1]), num(f[2]), num(f[5])
		if from != int64(spans[i].NodeID) || f[3] != "17" || f[4] != "0.0" {
			t.Fatalf("row %d = %q, want node %d on channel 17 at 0.0 dBm", i, row, spans[i].NodeID)
		}
		if air := radio.FrameAirtime(int(bytes)).Microseconds(); end-start != air {
			t.Fatalf("row %d = %q: extent %d µs, airtime %d µs", i, row, end-start, air)
		}
	}
	tb.Run(10 * time.Second)
	if tb.Med.Stats().Transmitted == sent {
		t.Fatal("no transmission after Stop: the scenario tests nothing")
	}
	if trace() != got {
		t.Fatal("stopped recorder kept recording")
	}
}
