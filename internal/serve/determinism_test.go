package serve

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"testing"
	"time"

	"liteview/internal/cli"
)

// testbedRunner builds the same per-tenant deployment cmd/lvserved
// builds, shrunk for test speed: a 3-node line, short warm-up, seeded
// by the service (Config.SeedFor derives the seed from the tenant name
// exactly like the daemon does).
func testbedRunner(tenant string, seed uint64) (Runner, error) {
	return deploymentRunner(cli.DeploymentFlags{
		Topo:    "line",
		Nodes:   3,
		Spacing: 18,
		Seed:    seed,
		Warmup:  12 * time.Second, // virtual time: cheap
	})
}

// deploymentRunner builds a tenant runner for an arbitrary deployment
// through the recipe cmd/lvserved uses (cli.BuildManaged and Session)
// over whatever topology the flags describe.
func deploymentRunner(dep cli.DeploymentFlags) (Runner, error) {
	tb, err := dep.BuildManaged()
	if err != nil {
		return nil, err
	}
	sh, err := dep.Session(tb, io.Discard)
	if err != nil {
		return nil, err
	}
	return NewShellRunner(sh)
}

// diagScript is the command sequence each tenant replays. It exercises
// the paper's diagnostic path (ping, traceroute, health) plus shell
// navigation, and its output depends on the tenant's simulation state —
// any cross-tenant interference would show up as changed bytes.
var diagScript = []string{
	"cd 192.168.0.1",
	"ls",
	"ping 192.168.0.2",
	"traceroute 192.168.0.3",
	"health 192.168.0.3",
	"stats",
	"pwd",
}

// runDirect replays the script on a freshly built runner with no
// service layer at all — the reference transcript.
func runDirect(t *testing.T, tenant string) string {
	t.Helper()
	r, err := testbedRunner(tenant, TenantSeed(0, tenant))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, line := range diagScript {
		out, err := r.Run(line)
		if err != nil {
			t.Fatalf("tenant %s direct %q: %v", tenant, line, err)
		}
		b.WriteString(out)
	}
	return b.String()
}

// TestParallelTenantsByteIdentical is the ISSUE's determinism gate: N
// tenants driven concurrently over real TCP sessions must each produce
// output byte-identical to a sequential, service-free run of the same
// script. Run under -race this also proves goroutine confinement of the
// per-tenant simulations.
func TestParallelTenantsByteIdentical(t *testing.T) {
	const n = 4
	tenants := make([]string, n)
	want := make([]string, n)
	for i := range tenants {
		tenants[i] = fmt.Sprintf("tenant-%c", 'a'+i)
		want[i] = runDirect(t, tenants[i])
		if want[i] == "" {
			t.Fatalf("tenant %s reference transcript is empty", tenants[i])
		}
	}
	// Distinct seeds must give distinct testbeds — otherwise the
	// byte-compare below could pass vacuously on identical worlds.
	if want[0] == want[1] {
		t.Fatal("tenant seeds did not diversify the testbeds")
	}

	_, addr := startServer(t, Config{NewRunner: testbedRunner})
	var wg sync.WaitGroup
	got := make([]string, n)
	errs := make([]error, n)
	for i := range tenants {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := Dial(addr, tenants[i])
			if err != nil {
				errs[i] = err
				return
			}
			defer c.Close()
			var b strings.Builder
			for _, line := range diagScript {
				resp, err := c.Run(line)
				if err != nil {
					errs[i] = fmt.Errorf("%s %q: %w", tenants[i], line, err)
					return
				}
				if resp.Error != "" {
					errs[i] = fmt.Errorf("%s %q: [%s] %s", tenants[i], line, resp.Code, resp.Error)
					return
				}
				b.WriteString(resp.Output)
			}
			got[i] = b.String()
		}(i)
	}
	wg.Wait()
	for i := range tenants {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if got[i] != want[i] {
			t.Errorf("tenant %s: concurrent service output diverged from sequential run\nwant %d bytes:\n%s\ngot %d bytes:\n%s",
				tenants[i], len(want[i]), want[i], len(got[i]), got[i])
		}
	}
}

// TestReconnectReplaysSameWorld: the tenant seed derivation means a
// second session attaching to the same tenant name (after the first
// one is gone and the tenant was rebuilt) sees the same testbed.
func TestReconnectReplaysSameWorld(t *testing.T) {
	cfg := Config{NewRunner: testbedRunner, TenantIdle: -1}
	srv, addr := startServer(t, cfg)
	run := func() string {
		c, err := Dial(addr, "replay")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		var b strings.Builder
		for _, line := range []string{"cd 192.168.0.1", "traceroute 192.168.0.3"} {
			resp, err := c.Run(line)
			if err != nil || resp.Error != "" {
				t.Fatalf("%q: %v %q", line, err, resp.Error)
			}
			b.WriteString(resp.Output)
		}
		return b.String()
	}
	first := run()

	// Drop the tenant the hard way (stop it as the janitor would), then
	// a fresh hello must rebuild an identical world.
	srv.mu.Lock()
	tn := srv.tenants["replay"]
	delete(srv.tenants, "replay")
	srv.mu.Unlock()
	if tn == nil {
		t.Fatal("tenant missing after first session")
	}
	tn.stop()
	<-tn.Done()

	if second := run(); second != first {
		t.Errorf("rebuilt tenant diverged:\nfirst:\n%s\nsecond:\n%s", first, second)
	}
}
