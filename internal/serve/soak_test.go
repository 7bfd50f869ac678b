package serve

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"liteview/internal/cli"
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
// stream that ended must leave the tenant recording nothing.
func TestTenantSoakHeapBounded(t *testing.T) {
	for _, watched := range []bool{false, true} {
		name := "unwatched"
		if watched {
			name = "watched"
		}
		t.Run(name, func(t *testing.T) { soak(t, watched) })
	}
}

func soak(t *testing.T, watched bool) {
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
	if watched {
		if err := c.Watch(WatchSpec{ForMs: 100}, func(string, uint64) bool { return true }); err != nil {
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
