package shell

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"liteview/internal/telemetry"
)

func TestLogShellCommands(t *testing.T) {
	f := deployShell(t, 2, 5, 20)
	f.run(t, "cd 192.168.0.1")
	f.run(t, "log on")
	f.run(t, "ping 192.168.0.2 round=1 length=16")
	got := f.run(t, "log show")
	if !strings.Contains(got, "event log of 192.168.0.1") {
		t.Fatalf("log show header missing: %q", got)
	}
	if !strings.Contains(got, "ping") {
		t.Fatalf("log lacks the ping trail: %q", got)
	}
	bounded := f.run(t, "log show 1")
	if strings.Count(bounded, "\n") > 2 {
		t.Fatalf("bounded show returned too much: %q", bounded)
	}
	f.run(t, "log off")
	if err := f.sh.Exec("log"); err == nil {
		t.Fatal("bare log accepted")
	}
	if err := f.sh.Exec("log paint"); err == nil {
		t.Fatal("bad subcommand accepted")
	}
	if err := f.sh.Exec("log show x"); err == nil {
		t.Fatal("bad count accepted")
	}
}

func TestSurveyShellCommand(t *testing.T) {
	f := deployShell(t, 3, 10, 21)
	got := f.run(t, "survey")
	if !strings.Contains(got, "radio survey:") {
		t.Fatalf("survey output: %q", got)
	}
	for _, name := range []string{"192.168.0.1", "192.168.0.2", "192.168.0.3"} {
		if !strings.Contains(got, name) {
			t.Fatalf("survey missing %s: %q", name, got)
		}
	}
	if !strings.Contains(got, "power=31 channel=17") {
		t.Fatalf("survey lacks settings: %q", got)
	}
}

func TestTracerouteMultipleRounds(t *testing.T) {
	f := deployShell(t, 3, 15, 22)
	f.run(t, "cd 192.168.0.1")
	got := f.run(t, "traceroute 192.168.0.3 round=2 length=32 port=10")
	if strings.Count(got, "Traceroute statistics:") != 2 {
		t.Fatalf("expected two rounds of statistics:\n%s", got)
	}
}

func TestPingByNumericID(t *testing.T) {
	f := deployShell(t, 2, 5, 23)
	f.run(t, "cd 192.168.0.1")
	got := f.run(t, "ping 2 round=1")
	if !strings.Contains(got, "Received = 1") {
		t.Fatalf("numeric target failed:\n%s", got)
	}
}

func TestUpdatePeriodPropagates(t *testing.T) {
	f := deployShell(t, 2, 5, 24)
	f.run(t, "cd 192.168.0.2")
	f.run(t, "neighborsetup update period=1200")
	n, _ := f.tb.ByName("192.168.0.2")
	if n.Neighbors().Period() != 1200*time.Millisecond {
		t.Fatalf("period = %v", n.Neighbors().Period())
	}
	if err := f.sh.Exec("neighborsetup update"); err == nil {
		t.Fatal("update without period accepted")
	}
	if err := f.sh.Exec("neighborsetup update period=0"); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestShellConstructorsValidate(t *testing.T) {
	f := deployShell(t, 2, 5, 25)
	if _, err := NewForTestbed(f.tb, nil, f.out); err == nil {
		t.Fatal("nil workstation accepted")
	}
}

func TestHealthcheckShellCommand(t *testing.T) {
	f := deployShell(t, 3, 15, 26)
	got := f.run(t, "healthcheck")
	if !strings.Contains(got, "health check: 3 node(s) visited") {
		t.Fatalf("output:\n%s", got)
	}
	if !strings.Contains(got, "no problems found") {
		t.Fatalf("healthy deployment reported problems:\n%s", got)
	}
}

func TestLsInsideNodeShowsFileTree(t *testing.T) {
	f := deployShell(t, 2, 5, 27)
	f.run(t, "cd 192.168.0.1")
	root := f.run(t, "ls")
	for _, want := range []string{"apps/", "proc/", "dev/"} {
		if !strings.Contains(root, want) {
			t.Fatalf("node root listing missing %q:\n%s", want, root)
		}
	}
	apps := f.run(t, "ls apps")
	if !strings.Contains(apps, "ping") || !strings.Contains(apps, "2148 B") {
		t.Fatalf("apps listing:\n%s", apps)
	}
	if err := f.sh.Exec("ls nowhere"); err == nil {
		t.Fatal("phantom dir accepted")
	}
}

// The three tests below check that integer arguments wider than their
// one-byte wire fields are refused before anything is sent, instead of
// wrapping modulo 256 at the node.

func TestPowerArgumentDoesNotWrap(t *testing.T) {
	f := deployShell(t, 2, 5, 21)
	f.run(t, "cd 192.168.0.1")
	// 259 would arrive as power 3.
	if err := f.sh.Exec("power 259"); err == nil {
		t.Fatal("power 259 accepted")
	}
	if got := f.run(t, "power"); !strings.Contains(got, "Power = 31") {
		t.Fatalf("power after refused set = %q", got)
	}
}

func TestChannelArgumentDoesNotWrap(t *testing.T) {
	f := deployShell(t, 2, 5, 22)
	f.run(t, "cd 192.168.0.1")
	// 267 would arrive as channel 11 and strand the node there.
	if err := f.sh.Exec("channel 267"); err == nil {
		t.Fatal("channel 267 accepted")
	}
	if got := f.run(t, "channel"); !strings.Contains(got, "Channel = 17") {
		t.Fatalf("channel after refused set = %q", got)
	}
}

func TestLogShowCountAboveByte(t *testing.T) {
	f := deployShell(t, 2, 5, 23)
	f.run(t, "cd 192.168.0.1")
	// Fill the node's 64-entry event ring; a count of 300 would arrive
	// as 44.
	f.run(t, "log on")
	for i := 0; i < 20 && !strings.Contains(f.run(t, "log show"), "(64 entries)"); i++ {
		f.run(t, "ping 192.168.0.2 round=5 length=16")
	}
	got := f.run(t, "log show 300")
	if head, _, _ := strings.Cut(got, "\n"); !strings.Contains(head, "(64 entries)") {
		t.Fatalf("log show 300 did not return the whole ring: %q", head)
	}
}

// TestTraceOffPausesCSV: the packet trace is exported from the telemetry
// recorder, so a `trace off` typed in the shell pauses it and `trace on`
// resumes it.
func TestTraceOffPausesCSV(t *testing.T) {
	f := deployShell(t, 3, 20, 12)
	var b strings.Builder
	sink, finish := telemetry.NewTraceCSV(&b)
	rec := f.tb.Telemetry()
	rec.AddSink(sink)
	rec.Start()
	f.run(t, "cd 192.168.0.1")
	f.run(t, "ping 192.168.0.2 round=1 length=32")
	f.run(t, "trace off")
	off, sent := f.tb.Eng.Now(), f.tb.Med.Stats().Transmitted
	f.run(t, "ping 192.168.0.2 round=1 length=32")
	on := f.tb.Eng.Now()
	if f.tb.Med.Stats().Transmitted == sent {
		t.Fatal("no transmission while tracing was off: the scenario tests nothing")
	}
	f.run(t, "trace on")
	f.run(t, "ping 192.168.0.2 round=1 length=32")

	if err := finish(); err != nil {
		t.Fatal(err)
	}
	var before, after int
	for _, row := range strings.Split(strings.TrimSpace(b.String()), "\n")[1:] {
		startUS, _, _ := strings.Cut(row, ",")
		start, err := strconv.ParseInt(startUS, 10, 64)
		if err != nil {
			t.Fatalf("row %q: %v", row, err)
		}
		switch {
		case start < off.Microseconds():
			before++
		case start < on.Microseconds():
			t.Fatalf("row %q was sent while tracing was off (%d–%d µs)", row, off.Microseconds(), on.Microseconds())
		default:
			after++
		}
	}
	if before == 0 || after == 0 {
		t.Fatalf("%d rows before trace off, %d after trace on; want some of each", before, after)
	}
}
