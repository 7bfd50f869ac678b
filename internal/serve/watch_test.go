package serve

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"liteview/internal/telemetry"
)

// TestWatchStreamsCommandEvents is the wire-watch end-to-end: one
// session watches a tenant while another runs a ping; the watcher must
// receive parseable JSONL frames carrying MAC-layer events stamped with
// the ping's span id, and a clean unwatch must end the stream.
func TestWatchStreamsCommandEvents(t *testing.T) {
	_, addr := startServer(t, Config{NewRunner: testbedRunner})
	const tenant = "watch-e2e"

	watcher, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()

	var (
		mu     sync.Mutex
		events []telemetry.Event
	)
	watchDone := make(chan error, 1)
	go func() {
		watchDone <- watcher.Watch(WatchSpec{Layer: "mac"}, func(line string, dropped uint64) bool {
			e, perr := telemetry.ParseJSONLine([]byte(line))
			if perr != nil {
				t.Errorf("unparseable frame %q: %v", line, perr)
				return false
			}
			mu.Lock()
			events = append(events, e)
			n := len(events)
			mu.Unlock()
			return n < 10
		})
	}()

	driver, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	run := func(line string) {
		if resp, err := driver.Run(line); err != nil || resp.Error != "" {
			t.Fatalf("%q: err=%v resp.Error=%q", line, err, resp.Error)
		}
	}
	run("cd 192.168.0.1")
	// The watch attaches concurrently with these commands: a ping that runs
	// before the stream starts is not seen, so ping until the watcher
	// has had its frame budget.
	deadline := time.After(10 * time.Second)
	for watching := true; watching; {
		select {
		case err := <-watchDone:
			if err != nil {
				t.Fatalf("Watch returned %v", err)
			}
			watching = false
		case <-deadline:
			t.Fatal("watch did not end after the frame budget")
		default:
			run("ping 192.168.0.3")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) < 10 {
		t.Fatalf("got %d frames, want >= 10", len(events))
	}
	spanStamped := 0
	for _, e := range events {
		if e.Layer != telemetry.LayerMAC {
			t.Fatalf("filter leaked a %s event: %+v", e.Layer, e)
		}
		if e.Span != 0 {
			spanStamped++
		}
	}
	if spanStamped == 0 {
		t.Fatal("no streamed MAC frame carried the command's span id")
	}
}

// TestWatchDoesNotPerturbTenant is the service-level zero-perturbation
// gate: a tenant driven through the full diagnostic script while a
// second session watches its telemetry must produce output
// byte-identical to the same script on a freshly built, service-free,
// never-observed runner.
func TestWatchDoesNotPerturbTenant(t *testing.T) {
	const tenant = "watched-tenant"
	want := runDirect(t, tenant)

	_, addr := startServer(t, Config{NewRunner: testbedRunner})
	watcher, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	watchDone := make(chan error, 1)
	var frames atomic.Int64
	go func() {
		watchDone <- watcher.Watch(WatchSpec{ForMs: 60_000}, func(string, uint64) bool {
			frames.Add(1)
			return true
		})
	}()

	driver, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	defer driver.Close()
	var got strings.Builder
	for _, line := range diagScript {
		resp, err := driver.Run(line)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		if resp.Error != "" {
			t.Fatalf("%q: %s", line, resp.Error)
		}
		got.WriteString(resp.Output)
	}
	if got.String() != want {
		t.Fatal("a live watch changed the tenant's command output")
	}

	// Prove the watch really observes the tenant. The watch attaches
	// concurrently with the script and gets no replay, so the script may
	// have finished before the subscription landed: keep pinging until
	// the streamer, which polls on a wall-clock tick, delivers a frame.
	deadline := time.Now().Add(10 * time.Second)
	for frames.Load() == 0 && time.Now().Before(deadline) {
		if resp, err := driver.Run("ping 192.168.0.3"); err != nil || resp.Error != "" {
			t.Fatalf("ping: err=%v resp.Error=%q", err, resp.Error)
		}
	}
	if frames.Load() == 0 {
		t.Fatal("watch observed nothing while the driver ran")
	}

	// End the stream from the client side and confirm the server answers
	// with a clean watch-end (Watch returns nil on it).
	if err := watcher.enc.Encode(Request{Type: TypeUnwatch}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-watchDone:
		if err != nil {
			t.Fatalf("Watch returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("unwatch did not end the stream")
	}
}

// TestWatchForMsEndsIdleStream: a stream over a silent tenant must
// still terminate when the spec's server-side duration elapses.
func TestWatchForMsEndsIdleStream(t *testing.T) {
	_, addr := startServer(t, Config{NewRunner: testbedRunner})
	c, err := Dial(addr, "idle-watch")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	done := make(chan error, 1)
	go func() {
		done <- c.Watch(WatchSpec{ForMs: 250}, func(string, uint64) bool { return true })
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Watch returned %v, want nil on elapsed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("idle watch never ended despite for_ms")
	}
	// The session must be reusable: the stale watch is cleared on the
	// next watch request, not wedged forever.
	done2 := make(chan error, 1)
	go func() {
		done2 <- c.Watch(WatchSpec{ForMs: 250}, func(string, uint64) bool { return true })
	}()
	select {
	case err := <-done2:
		if err != nil {
			t.Fatalf("second Watch returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("second watch on the same session never ended")
	}
}

// TestWatchRejections covers the error paths: watching before hello,
// and watching a tenant whose runner exposes no telemetry.
func TestWatchRejections(t *testing.T) {
	_, addr := startServer(t, Config{NewRunner: testbedRunner})
	bare, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if err := bare.Watch(WatchSpec{}, func(string, uint64) bool { return true }); err == nil {
		t.Fatal("watch before hello was accepted")
	} else if !strings.Contains(err.Error(), "hello") {
		t.Fatalf("unhelpful rejection: %v", err)
	}

	_, addr2 := startServer(t, echoConfig())
	c, err := Dial(addr2, "no-telemetry")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Watch(WatchSpec{}, func(string, uint64) bool { return true }); err == nil {
		t.Fatal("watch on a telemetry-less runner was accepted")
	} else if !strings.Contains(err.Error(), "telemetry") {
		t.Fatalf("unhelpful rejection: %v", err)
	}
}
