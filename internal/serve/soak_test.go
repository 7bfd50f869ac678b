package serve

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"time"

	"liteview/internal/cli"
	"liteview/internal/telemetry"
)

// soakCommands is the soak test's first batch; the second batch is
// three times as long, so the tenant has run N and then 4N commands.
const soakCommands = 40

// soakHeapBound is how far the live heap may grow between the tenant's
// first N commands and its 4N-th. Every per-node table, duplicate
// filter, queue and metric the command path touches is bounded; what
// still grows is the duplicate filters (sim.Recent) filling toward
// their bounds, 10–17 kB on this deployment. A leak of 280 B per
// command would cross the bound.
const soakHeapBound = 32 << 10

// liveHeap collects garbage and returns the bytes still reachable. Two
// cycles let the pools drop what the first cycle moved to their victim
// caches.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestTenantSoakHeapBounded is the daemon's boundedness check: one
// grid tenant behind a live server runs N routed pings and traceroutes
// across its field, then 3N more, and the live heap after the 4N-th
// command may exceed the heap after the N-th by at most soakHeapBound.
// The watched input first streams the tenant's telemetry for 100 ms: a
// stream that ended must leave the tenant recording nothing. The traced
// input sends `trace on` first and records the whole load: a recording
// keeps a fixed history ring, running counts and the newest span rows,
// so it holds the same bound.
func TestTenantSoakHeapBounded(t *testing.T) {
	for _, mode := range []string{"unwatched", "watched", "traced"} {
		t.Run(mode, func(t *testing.T) { soak(t, mode) })
	}
}

func soak(t *testing.T, mode string) {
	newRunner := func(_ string, seed uint64) (Runner, error) {
		return deploymentRunner(cli.DeploymentFlags{
			Topo: "grid", Rows: 6, Cols: 6, Spacing: 14, Seed: seed, Warmup: 10 * time.Second,
		})
	}
	_, addr := startServer(t, Config{NewRunner: newRunner, BreakerThreshold: -1})
	c, err := Dial(addr, "soak")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Run("cd 192.168.0.1"); err != nil {
		t.Fatal(err)
	}
	switch mode {
	case "watched":
		if err := c.Watch(WatchSpec{ForMs: 100}, func(string, uint64) bool { return true }); err != nil {
			t.Fatal(err)
		}
	case "traced":
		if _, err := c.Run("trace on"); err != nil {
			t.Fatal(err)
		}
	}
	next := 0
	run := func(n int) {
		for i := 0; i < n; i++ {
			dst := fmt.Sprintf("192.168.0.%d", 2+next%35)
			line := "traceroute " + dst
			if next%2 == 0 {
				line = "ping " + dst + " port=10"
			}
			next++
			resp, err := c.Run(line)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			if resp.Error != "" || !strings.Contains(resp.Output, "statistics") {
				t.Fatalf("%s: error %q, output %q", line, resp.Error, resp.Output)
			}
		}
	}
	run(soakCommands)
	after1 := liveHeap()
	run(3 * soakCommands)
	after4 := liveHeap()
	growth := int64(after4) - int64(after1)
	t.Logf("live heap after %d commands %d B, after %d %d B: growth %d B (bound %d B)",
		soakCommands, after1, 4*soakCommands, after4, growth, soakHeapBound)
	if growth > soakHeapBound {
		t.Fatalf("live heap grew %d B from %d to %d commands, bound %d B",
			growth, soakCommands, 4*soakCommands, soakHeapBound)
	}
}

// traceHeapBound is how far the live heap of a session recording its
// packet trace may grow when the session's warm-up doubles. A recording
// keeps a fixed history ring and running counts; a recorder that kept
// each event (about 200 B on this deployment) would cross the bound
// within the first virtual second of extra warm-up.
const traceHeapBound = 64 << 10

// TestTraceFileHeapBounded records a whole liteview session, the paper's
// 30-node testbed with a ping and a traceroute, into a packet-trace CSV
// sink. The live heap with the session still open must not grow with
// the session's length: a 600 s warm-up ends within traceHeapBound of a
// 300 s one.
func TestTraceFileHeapBounded(t *testing.T) {
	heap := func(warmup time.Duration) uint64 {
		d := cli.DeploymentFlags{Topo: "line", Nodes: 30, Spacing: 20, Seed: 1,
			Shadow: 1, Asym: 1.5, Warmup: warmup}
		tb, err := d.BuildManaged()
		if err != nil {
			t.Fatal(err)
		}
		sink, finish := telemetry.NewTraceCSV(io.Discard)
		rec := tb.Telemetry()
		rec.AddSink(sink)
		rec.Start()
		sh, err := d.Session(tb, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []string{"cd 192.168.0.1", "ping 192.168.0.9 round=5", "traceroute 192.168.0.30"} {
			if err := sh.Exec(line); err != nil {
				t.Fatal(err)
			}
		}
		h := liveHeap()
		runtime.KeepAlive(sh) // the shell holds the testbed and its recorder
		if err := finish(); err != nil {
			t.Fatal(err)
		}
		return h
	}
	short, long := heap(300*time.Second), heap(600*time.Second)
	growth := int64(long) - int64(short)
	t.Logf("live heap with a 300 s warm-up %d B, with 600 s %d B: growth %d B (bound %d B)",
		short, long, growth, traceHeapBound)
	if growth > traceHeapBound {
		t.Fatalf("a traced session's live heap grew %d B when its warm-up doubled, bound %d B",
			growth, traceHeapBound)
	}
}
