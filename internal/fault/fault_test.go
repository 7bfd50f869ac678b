package fault_test

import (
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

// deployFault builds a warmed-up line with LiteView and a workstation.
func deployFault(t *testing.T, n int, spacing float64, seed uint64) (*testbed.Testbed, *core.Workstation) {
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
	return tb, ws
}

func TestScheduleValidation(t *testing.T) {
	tb, _ := deployFault(t, 3, 18, 1)
	inj := tb.FaultInjector()
	cases := []fault.Fault{
		{At: inj.Now(), Kind: fault.NodeCrash, Node: 99},                      // unknown node
		{At: inj.Now(), Kind: fault.LinkBlackout, A: 1, B: 1},                 // same endpoints
		{At: inj.Now(), Kind: fault.LinkBlackout, A: 99, B: 1},                // unknown A
		{At: inj.Now(), Kind: fault.LinkDegrade, A: 1, B: 2, ExtraLossDB: -1}, // negative loss
		{At: inj.Now(), Kind: fault.CorruptBurst, Node: 1, Prob: 1.5},         // bad probability
		{At: inj.Now(), Kind: fault.Jam, Channel: 5},                          // channel out of band
		{At: inj.Now(), Kind: fault.Partition},                                // empty group
		{At: inj.Now(), Kind: fault.Partition, Group: []phys.NodeID{99}},      // unknown member
		{At: inj.Now() - time.Second, Kind: fault.NodeCrash, Node: 1},         // in the past
		{At: inj.Now(), Kind: fault.NodeCrash, Node: 1, Duration: -1},         // negative duration
	}
	for i, f := range cases {
		if _, err := inj.Schedule(f); err == nil {
			t.Fatalf("case %d accepted: %+v", i, f)
		}
	}
	if n := len(inj.Faults()); n != 0 {
		t.Fatalf("%d rejected faults were recorded", n)
	}
}

func TestFaultLifecycleStates(t *testing.T) {
	tb, _ := deployFault(t, 3, 18, 2)
	inj := tb.FaultInjector()
	id, err := inj.Schedule(fault.Fault{At: inj.Now() + time.Second, Kind: fault.NodeCrash,
		Node: 2, Duration: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	state := func() fault.State {
		for _, st := range inj.Faults() {
			if st.ID == id {
				return st.State
			}
		}
		t.Fatalf("fault %d not listed", id)
		return 0
	}
	if state() != fault.Pending {
		t.Fatalf("state before start = %v", state())
	}
	tb.Run(1500 * time.Millisecond)
	if state() != fault.Active {
		t.Fatalf("state mid-window = %v", state())
	}
	if tb.Node(1).Alive() {
		t.Fatal("node alive mid-crash")
	}
	tb.Run(time.Second)
	if state() != fault.Done {
		t.Fatalf("state after window = %v", state())
	}
	if !tb.Node(1).Alive() {
		t.Fatal("node did not reboot after the window")
	}
	if !strings.Contains(inj.Faults()[0].String(), "node-crash") {
		t.Fatalf("listing: %s", inj.Faults()[0])
	}
}

// recordTrace starts recording tb's telemetry into a packet trace CSV
// and returns a function that returns the trace recorded so far.
func recordTrace(t *testing.T, tb *testbed.Testbed) (trace func() string) {
	t.Helper()
	var b strings.Builder
	sink, finish := telemetry.NewTraceCSV(&b)
	rec := tb.Telemetry()
	rec.AddSink(sink)
	rec.Start()
	return func() string {
		t.Helper()
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
}

// scriptedRun executes a fixed command script under a fixed fault
// schedule, returning the packet trace CSV and the diagnosis report.
func scriptedRun(t *testing.T, seed uint64) (traceCSV, report string) {
	t.Helper()
	tb, ws := deployFault(t, 5, 20, seed)
	inj := tb.FaultInjector()
	trace := recordTrace(t, tb)
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
	return trace(), rep.String()
}

// TestSeedDeterminism is the regression test for the injector's core
// promise: identical (topology, seed, fault schedule) yields a
// byte-identical packet trace and an identical diagnosis report.
func TestSeedDeterminism(t *testing.T) {
	trace1, rep1 := scriptedRun(t, 21)
	trace2, rep2 := scriptedRun(t, 21)
	if trace1 != trace2 {
		t.Fatal("same seed produced different packet traces")
	}
	if rep1 != rep2 {
		t.Fatalf("same seed produced different diagnosis reports:\n--- a ---\n%s--- b ---\n%s", rep1, rep2)
	}
	if len(strings.Split(trace1, "\n")) < 10 {
		t.Fatalf("suspiciously empty trace:\n%s", trace1)
	}
	// A different seed must actually change the trace (the injector is
	// deterministic, not constant).
	trace3, _ := scriptedRun(t, 22)
	if trace1 == trace3 {
		t.Fatal("different seeds produced identical packet traces")
	}
}

// TestInjectorDoesNotPerturbFaultFreeRuns asserts that merely creating
// the injector (no faults scheduled) leaves the packet trace identical
// to a run without it.
func TestInjectorDoesNotPerturbFaultFreeRuns(t *testing.T) {
	run := func(withInjector bool) string {
		tb, ws := deployFault(t, 4, 20, 23)
		if withInjector {
			tb.FaultInjector()
		}
		trace := recordTrace(t, tb)
		ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32})
		tb.Run(time.Second)
		return trace()
	}
	if run(false) != run(true) {
		t.Fatal("installing the injector changed a fault-free packet trace")
	}
}

// TestHooksLiveOnlyWhileActive checks that the injector's medium and MAC
// hooks are installed exactly while a fault is in force — absent while
// faults are pending, present while any is active, removed once the
// last clears — and that installed on demand they still act: a
// blackout drops frames and a burst corrupts them.
func TestHooksLiveOnlyWhileActive(t *testing.T) {
	tb, ws := deployFault(t, 3, 18, 4)
	inj := tb.FaultInjector()
	hooks := func() (med bool, macs int) {
		for _, n := range tb.Nodes {
			if n.MAC().RxFaultHooked() {
				macs++
			}
		}
		return tb.Med.FaultHooked(), macs
	}
	want := func(phase string, med bool, macs int) {
		t.Helper()
		if gm, gn := hooks(); gm != med || gn != macs {
			t.Fatalf("%s: medium hook %v, %d MAC hooks; want %v and %d", phase, gm, gn, med, macs)
		}
	}
	want("no faults", false, 0)
	at := inj.Now() + 100*time.Millisecond
	if _, err := inj.Schedule(fault.Fault{At: at, Duration: time.Second,
		Kind: fault.LinkBlackout, A: 1, B: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := inj.Schedule(fault.Fault{At: at, Duration: 2 * time.Second,
		Kind: fault.CorruptBurst, Node: 3, Prob: 1}); err != nil {
		t.Fatal(err)
	}
	want("pending", false, 0)
	tb.Run(200 * time.Millisecond)
	want("active", true, len(tb.Nodes))
	drops := tb.Med.Stats().InjectedDrops
	crc := tb.Node(2).MAC().Stats().CRCFailures
	ws.Ping(1, core.PingOptions{Dst: 2, Rounds: 2, Length: 32})
	if tb.Med.Stats().InjectedDrops == drops {
		t.Fatal("the blackout dropped no frame between nodes 1 and 2")
	}
	if tb.Node(2).MAC().Stats().CRCFailures == crc {
		t.Fatal("the burst corrupted no frame at node 3")
	}
	tb.Run(time.Second) // the blackout has cleared, the burst has not
	want("one active", true, len(tb.Nodes))
	tb.Run(time.Second)
	want("all cleared", false, 0)
}
