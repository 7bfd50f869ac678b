package liteview

import (
	"runtime"
	"testing"
	"time"

	"liteview/internal/routing"
	"liteview/internal/testbed"
)

// gridBytesPerNodeBound caps the live heap a node of the 400-node grid
// holds after warm-up: the 11,655 B measured once the event log, the
// geographic router's table copy and the neighbor rows' padding stopped
// costing memory before use (14,825 B before), plus 10 %.
const gridBytesPerNodeBound = 12820

// TestGridBytesPerNode is the footprint guard for per-node state. It
// builds the 400-node grid the way the scale experiment and lvperf's
// grid-400 workload do (20×20 at 14 m, no shadowing, geographic
// forwarding, LiteView installed), warms it up for 10 s of virtual
// time and divides the live heap the deployment holds by its node
// count.
func TestGridBytesPerNode(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	opt := testbed.DefaultOptions(1)
	opt.ShadowSigma, opt.AsymSigma = 0, 0
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
	tb.WarmUp(10 * time.Second)
	runtime.GC()
	runtime.ReadMemStats(&after)
	perNode := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / int64(len(tb.Nodes))
	runtime.KeepAlive(tb)
	t.Logf("%d B of live heap per node (bound %d B)", perNode, gridBytesPerNodeBound)
	if perNode > gridBytesPerNodeBound {
		t.Fatalf("a warmed-up grid node holds %d B of live heap, bound %d B", perNode, gridBytesPerNodeBound)
	}
}
