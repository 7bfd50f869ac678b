package shell

import (
	"strings"
	"testing"
	"time"

	"liteview/internal/core"
	"liteview/internal/phys"
	"liteview/internal/routing"
	"liteview/internal/testbed"
)

type fixture struct {
	tb    *testbed.Testbed
	sh    *Shell
	out   *strings.Builder
	reset func()
}

func deployShell(t *testing.T, n int, spacing float64, seed uint64) *fixture {
	t.Helper()
	opt := testbed.DefaultOptions(seed)
	opt.ShadowSigma = 0
	opt.AsymSigma = 0
	tb, err := testbed.Line(n, spacing, opt)
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
	var out strings.Builder
	sh, err := NewForTestbed(tb, ws, &out)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{tb: tb, sh: sh, out: &out, reset: func() { out.Reset() }}
}

func (f *fixture) run(t *testing.T, line string) string {
	t.Helper()
	f.reset()
	if err := f.sh.Exec(line); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	return f.out.String()
}

func TestPwdLsCd(t *testing.T) {
	f := deployShell(t, 2, 5, 1)
	if got := f.run(t, "pwd"); got != "/\n" {
		t.Fatalf("pwd = %q", got)
	}
	ls := f.run(t, "ls")
	if !strings.Contains(ls, "/sn01/192.168.0.1") || !strings.Contains(ls, "/sn02/192.168.0.2") {
		t.Fatalf("ls = %q", ls)
	}
	f.run(t, "cd 192.168.0.1")
	if got := f.run(t, "pwd"); got != "/sn01/192.168.0.1\n" {
		t.Fatalf("pwd after cd = %q", got)
	}
	// cd by full path too.
	f.run(t, "cd /sn02/192.168.0.2")
	if f.sh.Cwd() != "/sn02/192.168.0.2" {
		t.Fatalf("cwd = %q", f.sh.Cwd())
	}
	f.run(t, "cd /")
	if _, ok := f.sh.CurrentNode(); ok {
		t.Fatal("still logged in after cd /")
	}
	if err := f.sh.Exec("cd nowhere"); err == nil {
		t.Fatal("cd to phantom node accepted")
	}
}

func TestPingTranscriptShape(t *testing.T) {
	f := deployShell(t, 2, 5, 2)
	f.run(t, "cd 192.168.0.1")
	got := f.run(t, "ping 192.168.0.2 round=1 length=32")
	for _, want := range []string{
		"Pinging 192.168.0.2 with 1 packets with 32 bytes:",
		"RTT = ", "LQI = ", "RSSI = ", "Queue = 0/0",
		"Power = 31, Channel = 17",
		"Ping statistics:", "Packets = 1", "Received = 1", "Lost = 0",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("transcript missing %q:\n%s", want, got)
		}
	}
}

func TestTracerouteTranscriptShape(t *testing.T) {
	f := deployShell(t, 4, 20, 3)
	f.run(t, "cd 192.168.0.1")
	got := f.run(t, "traceroute 192.168.0.4 round=1 length=32 port=10")
	for _, want := range []string{
		"Reaching 192.168.0.4 with 1 packets with 32 bytes:",
		"Name of protocol: geographic forwarding",
		"Reply from 192.168.0.2",
		"Reply from 192.168.0.4",
		"Traceroute statistics:",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("transcript missing %q:\n%s", want, got)
		}
	}
}

// TestTracerouteGapLines pins where the traceroute transcript prints a
// "*" line: for each hop below the highest one reported whose own
// report never arrived. The reports here are all lost probes, so the
// lines need no node names.
func TestTracerouteGapLines(t *testing.T) {
	cases := []struct {
		name string
		hops []int
		want string
	}{
		{"no reports", nil, ""},
		{"contiguous", []int{1, 2, 3}, "Hop 1: no reply\nHop 2: no reply\nHop 3: no reply\n"},
		{"middle hop silent", []int{1, 3}, "Hop 1: no reply\nHop 2: *\nHop 3: no reply\n"},
		{"two gaps", []int{1, 3, 5}, "Hop 1: no reply\nHop 2: *\nHop 3: no reply\nHop 4: *\nHop 5: no reply\n"},
		{"first hops silent", []int{4}, "Hop 1: *\nHop 2: *\nHop 3: *\nHop 4: no reply\n"},
		{"duplicates collapse", []int{4, 2, 2}, "Hop 1: *\nHop 2: no reply\nHop 2: no reply\nHop 3: *\nHop 4: no reply\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var reports []core.TimedHopReport
			for _, h := range tc.hops {
				reports = append(reports, core.TimedHopReport{TrHopReport: core.TrHopReport{Hop: h, Lost: true}})
			}
			var out strings.Builder
			(&Shell{out: &out}).printHops(reports)
			if got := out.String(); got != tc.want {
				t.Fatalf("printed:\n%swant:\n%s", got, tc.want)
			}
		})
	}
}

func TestNeighborCommands(t *testing.T) {
	f := deployShell(t, 3, 15, 4)
	f.run(t, "cd 192.168.0.2")
	list := f.run(t, "neighborsetup list")
	if !strings.Contains(list, "192.168.0.1") || !strings.Contains(list, "192.168.0.3") {
		t.Fatalf("list = %q", list)
	}
	if !strings.Contains(list, "LQI=") || !strings.Contains(list, "PRR=") {
		t.Fatalf("list lacks link info: %q", list)
	}
	f.run(t, "neighborsetup blacklist add 192.168.0.3")
	list = f.run(t, "neighborsetup list")
	if !strings.Contains(list, "[blacklisted]") {
		t.Fatalf("blacklist flag missing: %q", list)
	}
	f.run(t, "neighborsetup blacklist remove 192.168.0.3")
	list = f.run(t, "neighborsetup list")
	if strings.Contains(list, "[blacklisted]") {
		t.Fatalf("blacklist flag not cleared: %q", list)
	}
	f.run(t, "neighborsetup update period=750")
	node, _ := f.tb.ByName("192.168.0.2")
	if node.Neighbors().Period() != 750*time.Millisecond {
		t.Fatalf("period = %v", node.Neighbors().Period())
	}
}

func TestPowerChannelCommands(t *testing.T) {
	f := deployShell(t, 2, 5, 5)
	f.run(t, "cd 192.168.0.1")
	if got := f.run(t, "power"); !strings.Contains(got, "Power = 31") {
		t.Fatalf("power = %q", got)
	}
	f.run(t, "power 25")
	if got := f.run(t, "power"); !strings.Contains(got, "Power = 25") {
		t.Fatalf("power after set = %q", got)
	}
	if got := f.run(t, "channel"); !strings.Contains(got, "Channel = 17") {
		t.Fatalf("channel = %q", got)
	}
	f.run(t, "channel 20")
	// The session retunes itself; a follow-up query still works.
	if got := f.run(t, "channel"); !strings.Contains(got, "Channel = 20") {
		t.Fatalf("channel after set = %q", got)
	}
}

func TestErrorsAndUsage(t *testing.T) {
	f := deployShell(t, 2, 5, 6)
	if err := f.sh.Exec("ping 192.168.0.2"); err == nil {
		t.Fatal("ping without login accepted")
	}
	f.run(t, "cd 192.168.0.1")
	if err := f.sh.Exec("ping"); err == nil {
		t.Fatal("ping without target accepted")
	}
	if err := f.sh.Exec("ping 192.168.0.2 round=x"); err == nil {
		t.Fatal("bad option accepted")
	}
	if err := f.sh.Exec("frobnicate"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := f.sh.Exec("neighborsetup blacklist paint 7"); err == nil {
		t.Fatal("bad subcommand accepted")
	}
	if err := f.sh.Exec("power 99"); err == nil {
		t.Fatal("bad power accepted")
	}
	// Empty lines, comments and help are fine; a comment runs nothing.
	if err := f.sh.Exec(""); err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"# ping 192.168.0.2", "  #frobnicate"} {
		if got := f.run(t, line); got != "" {
			t.Fatalf("comment %q printed %q", line, got)
		}
	}
	if got := f.run(t, "help"); !strings.Contains(got, "traceroute") {
		t.Fatalf("help = %q", got)
	}
}

func TestMultiHopPingTranscript(t *testing.T) {
	f := deployShell(t, 4, 20, 7)
	f.run(t, "cd 192.168.0.1")
	got := f.run(t, "ping 192.168.0.4 round=1 length=16 port=10")
	if !strings.Contains(got, "Name of protocol: geographic forwarding") {
		t.Fatalf("protocol line missing:\n%s", got)
	}
	if !strings.Contains(got, "hop (forward)") || !strings.Contains(got, "hop (backward)") {
		t.Fatalf("per-hop padding lines missing:\n%s", got)
	}
}

func TestLsInsideNode(t *testing.T) {
	// Inside a node, ls shows the LiteOS file-tree view of the node.
	f := deployShell(t, 2, 5, 8)
	f.run(t, "cd 192.168.0.2")
	if got := f.run(t, "ls"); !strings.Contains(got, "apps/") {
		t.Fatalf("ls = %q", got)
	}
}

func TestFaultCommand(t *testing.T) {
	f := deployShell(t, 3, 18, 9)
	// Schedule a crash of node 2 starting now, lasting one second.
	out := f.run(t, "fault crash 192.168.0.2 for=1000")
	if !strings.Contains(out, "fault #1 scheduled") {
		t.Fatalf("schedule output: %q", out)
	}
	out = f.run(t, "fault list")
	if !strings.Contains(out, "node-crash") || !strings.Contains(out, "node 2") {
		t.Fatalf("list output: %q", out)
	}
	// Let the crash take effect; the node stops answering.
	f.tb.Run(100 * time.Millisecond)
	if f.tb.Node(1).Alive() {
		t.Fatal("node still alive after fault crash")
	}
	f.run(t, "cd 192.168.0.2")
	if err := f.sh.Exec("power"); err == nil {
		t.Fatal("power on crashed node succeeded")
	}
	// After the window the node reboots and answers again.
	f.tb.Run(2 * time.Second)
	out = f.run(t, "power")
	if !strings.Contains(out, "Power = ") {
		t.Fatalf("power after reboot: %q", out)
	}
	// The other fault classes and bad input parse correctly.
	for _, line := range []string{
		"fault blackout 192.168.0.1 192.168.0.2 for=500",
		"fault degrade 1 2 db=25 for=500",
		"fault corrupt 192.168.0.3 prob=70 for=500",
		"fault jam 17 for=500",
		"fault partition 192.168.0.3 for=500",
	} {
		if out := f.run(t, line); !strings.Contains(out, "scheduled") {
			t.Fatalf("%q output: %q", line, out)
		}
	}
	for _, line := range []string{
		"fault",
		"fault crash",
		"fault crash nope",
		"fault blackout 1",
		"fault jam 99",
		"fault nonsense 1",
	} {
		if err := f.sh.Exec(line); err == nil {
			t.Fatalf("%q accepted", line)
		}
	}
}
