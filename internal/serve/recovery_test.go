package serve

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"liteview/internal/cli"
	"liteview/internal/journal"
)

// crashSwitch arms a one-shot injected crash shared across runner
// incarnations: the supervisor rebuilds the Runner on recovery, so the
// "crash exactly once" state must live outside it.
type crashSwitch struct {
	mu    sync.Mutex
	armed bool
}

func (s *crashSwitch) arm() {
	s.mu.Lock()
	s.armed = true
	s.mu.Unlock()
}

// fire reports whether the crash should happen now, disarming it.
func (s *crashSwitch) fire() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.armed {
		return false
	}
	s.armed = false
	return true
}

// flakyRunner wraps the real testbed runner: "flaky <cmd>" panics once
// while the switch is armed (before touching the simulation), and
// delegates to <cmd> otherwise — so a replayed journal re-executes the
// very command that crashed the original incarnation.
type flakyRunner struct {
	inner Runner
	sw    *crashSwitch
}

func (f *flakyRunner) Run(line string) (string, error) {
	if rest, ok := strings.CutPrefix(line, "flaky "); ok {
		if f.sw.fire() {
			panic("recovery: injected crash before " + rest)
		}
		return f.inner.Run(rest)
	}
	return f.inner.Run(line)
}

func (f *flakyRunner) Cwd() string { return f.inner.Cwd() }

func flakyFactory(sw *crashSwitch) func(string, uint64) (Runner, error) {
	return func(tenant string, seed uint64) (Runner, error) {
		r, err := testbedRunner(tenant, seed)
		if err != nil {
			return nil, err
		}
		return &flakyRunner{inner: r, sw: sw}, nil
	}
}

// recoveryScript is the diagnosis the recovery tests interrupt. The
// "flaky" command is where Test A injects its panic; with the switch
// unarmed it is a plain traceroute. health and stats at the tail make
// the byte-compare cover the post-recovery world state, not just one
// command's output.
var recoveryScript = []string{
	"cd 192.168.0.1",
	"ping 192.168.0.2",
	"flaky traceroute 192.168.0.3",
	"health 192.168.0.3",
	"ping 192.168.0.3",
	"stats",
	"pwd",
}

// recoveryReference runs recoveryScript on a bare runner (no service,
// no crash armed) and returns each command's output — the transcript a
// never-interrupted run must reproduce byte for byte.
func recoveryReference(t *testing.T, tenant string) []string {
	t.Helper()
	r, err := flakyFactory(&crashSwitch{})(tenant, TenantSeed(0, tenant))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]string, len(recoveryScript))
	for i, line := range recoveryScript {
		o, err := r.Run(line)
		if err != nil {
			t.Fatalf("reference %q: %v", line, err)
		}
		out[i] = o
	}
	// Guard against a vacuous byte-compare: the interesting commands
	// must actually say something.
	if out[2] == "" || out[3] == "" || out[5] == "" {
		t.Fatalf("reference transcript has empty outputs: %q", out)
	}
	return out
}

// dialRecovered dials a tenant that may still be mid-recovery, retrying
// the transient "recovering" rejection until the replay finishes.
func dialRecovered(t *testing.T, addr, tenant string) *Client {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := Dial(addr, tenant)
		if err == nil {
			return c
		}
		var rej *RejectedError
		if !errors.As(err, &rej) || !rej.Transient {
			t.Fatalf("hello to %q during recovery: %v", tenant, err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant %q never finished recovering: %v", tenant, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCrashMidScriptRecoversByteIdentical is the ISSUE's first
// determinism gate: a tenant panics mid-script, the supervisor
// resurrects it by replaying the journal, and the remaining commands
// produce output byte-identical to a run that never crashed.
func TestCrashMidScriptRecoversByteIdentical(t *testing.T) {
	const tenant = "phoenix"
	want := recoveryReference(t, tenant)

	sw := &crashSwitch{}
	cfg := Config{
		NewRunner:      flakyFactory(sw),
		JournalDir:     t.TempDir(),
		RestartBackoff: time.Millisecond,
		TenantIdle:     -1,
	}
	srv, addr := startServer(t, cfg)
	sw.arm()

	c, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(recoveryScript))
	for i := 0; i < 2; i++ {
		resp, err := c.Run(recoveryScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("%q: %v %q", recoveryScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	// The armed command crashes the tenant; the session sees the typed
	// crash, not a dead connection.
	resp, err := c.Run(recoveryScript[2])
	if err != nil {
		t.Fatalf("crash command transport: %v", err)
	}
	if resp.Code != CodeTenantCrashed {
		t.Fatalf("crash code = %q (%s), want %q", resp.Code, resp.Error, CodeTenantCrashed)
	}
	c.Close()

	// Re-attach (riding out the transient recovering rejection) and run
	// the rest of the script. The journal replayed the crashed command
	// itself — the switch is disarmed now — so the world state matches
	// the uninterrupted reference exactly.
	c2 := dialRecovered(t, addr, tenant)
	defer c2.Close()
	for i := 3; i < len(recoveryScript); i++ {
		resp, err := c2.Run(recoveryScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("post-recovery %q: %v %q", recoveryScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	for i := range want {
		if i == 2 {
			continue // the crashed command produced no client-visible output
		}
		if got[i] != want[i] {
			t.Errorf("command %q diverged after crash recovery\nwant:\n%s\ngot:\n%s",
				recoveryScript[i], want[i], got[i])
		}
	}

	m := srv.MetricsSnapshot()
	if m["serve.tenants.crashed"] != 1 {
		t.Errorf("tenants.crashed = %v, want 1", m["serve.tenants.crashed"])
	}
	if m["serve.recovery.restarts"] != 1 {
		t.Errorf("recovery.restarts = %v, want 1", m["serve.recovery.restarts"])
	}
	if m["serve.recovery.recovered"] != 1 {
		t.Errorf("recovery.recovered = %v, want 1", m["serve.recovery.recovered"])
	}
	// cd, ping, and the flaky traceroute were journaled before the crash.
	if m["serve.recovery.replayed_commands"] != 3 {
		t.Errorf("recovery.replayed_commands = %v, want 3", m["serve.recovery.replayed_commands"])
	}
	if h := srv.Healthz(); !h.Ready || len(h.Quarantined) != 0 {
		t.Errorf("health after recovery: %+v", h)
	}
}

// shardedDep is the deployment the sharded recovery test runs: a line
// long enough to span two medium cells (8 nodes × 18 m = 126 m against
// the ~108 m auto cell size). Both cells sit inside each other's detectability ring, so sharded
// output must match the unsharded medium byte for byte.
func shardedDep(seed uint64) cli.DeploymentFlags {
	return cli.DeploymentFlags{
		Topo:    "line",
		Nodes:   8,
		Spacing: 18,
		Seed:    seed,
		Warmup:  12 * time.Second,
		Shard:   true,
	}
}

func shardedFlakyFactory(sw *crashSwitch) func(string, uint64) (Runner, error) {
	return func(tenant string, seed uint64) (Runner, error) {
		r, err := deploymentRunner(shardedDep(seed))
		if err != nil {
			return nil, err
		}
		return &flakyRunner{inner: r, sw: sw}, nil
	}
}

// shardedScript walks the diagnostic path across both cells: the ping
// and traceroute targets live in the far cell, so every command's
// output depends on cross-cell deliveries.
var shardedScript = []string{
	"cd 192.168.0.1",
	"ping 192.168.0.4",
	"flaky traceroute 192.168.0.8",
	"health 192.168.0.6",
	"ping 192.168.0.8",
	"stats",
	"pwd",
}

// TestShardedMediumCrashRecoveryByteIdentical is the sharded medium's
// §13 acceptance gate: a tenant running on a spatially sharded medium
// panics mid-script, the supervisor resurrects it by
// replaying the journal, and the rest of the script is byte-identical
// to an uninterrupted sharded run — which is itself byte-identical to
// the plain unsharded medium on this topology.
func TestShardedMediumCrashRecoveryByteIdentical(t *testing.T) {
	const tenant = "cellular"
	seed := TenantSeed(0, tenant)

	// The deployment really is sharded and really spans cells.
	probeDep := shardedDep(seed)
	tb, err := probeDep.Build()
	if err != nil {
		t.Fatal(err)
	}
	if cells, _, _ := tb.Med.ShardInfo(); !tb.Med.Sharded() || cells < 2 {
		t.Fatalf("deployment not sharded across cells: sharded=%v cells=%d", tb.Med.Sharded(), cells)
	}

	// Uninterrupted sharded reference, and the unsharded oracle it must
	// agree with (the sharded medium's §10 contract surfaced through the
	// whole shell stack).
	runScript := func(factory func(string, uint64) (Runner, error)) []string {
		r, err := factory(tenant, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(shardedScript))
		for i, line := range shardedScript {
			o, err := r.Run(line)
			if err != nil {
				t.Fatalf("reference %q: %v", line, err)
			}
			out[i] = o
		}
		return out
	}
	want := runScript(shardedFlakyFactory(&crashSwitch{}))
	plain := runScript(func(_ string, seed uint64) (Runner, error) {
		dep := shardedDep(seed)
		dep.Shard = false
		r, err := deploymentRunner(dep)
		if err != nil {
			return nil, err
		}
		return &flakyRunner{inner: r, sw: &crashSwitch{}}, nil
	})
	for i := range want {
		if want[i] != plain[i] {
			t.Errorf("sharded output diverged from unsharded medium at %q\nunsharded:\n%s\nsharded:\n%s",
				shardedScript[i], plain[i], want[i])
		}
	}
	if want[2] == "" || want[4] == "" || want[5] == "" {
		t.Fatalf("reference transcript has empty outputs: %q", want)
	}

	// Crash the sharded tenant mid-script and recover through the journal.
	sw := &crashSwitch{}
	cfg := Config{
		NewRunner:      shardedFlakyFactory(sw),
		JournalDir:     t.TempDir(),
		RestartBackoff: time.Millisecond,
		TenantIdle:     -1,
	}
	srv, addr := startServer(t, cfg)
	sw.arm()

	c, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(shardedScript))
	for i := 0; i < 2; i++ {
		resp, err := c.Run(shardedScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("%q: %v %q", shardedScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	resp, err := c.Run(shardedScript[2])
	if err != nil {
		t.Fatalf("crash command transport: %v", err)
	}
	if resp.Code != CodeTenantCrashed {
		t.Fatalf("crash code = %q (%s), want %q", resp.Code, resp.Error, CodeTenantCrashed)
	}
	c.Close()

	c2 := dialRecovered(t, addr, tenant)
	defer c2.Close()
	for i := 3; i < len(shardedScript); i++ {
		resp, err := c2.Run(shardedScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("post-recovery %q: %v %q", shardedScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	for i := range want {
		if i == 2 {
			continue // the crashed command produced no client-visible output
		}
		if got[i] != want[i] {
			t.Errorf("command %q diverged after sharded-medium crash recovery\nwant:\n%s\ngot:\n%s",
				shardedScript[i], want[i], got[i])
		}
	}

	if m := srv.MetricsSnapshot(); m["serve.recovery.recovered"] != 1 {
		t.Errorf("recovery.recovered = %v, want 1", m["serve.recovery.recovered"])
	}
}

// hardStop kills a server as close to kill -9 as an in-process test
// can: close the listener and stop every tenant loop with no drain and
// no tidying. (Durability of unsynced bytes is the CI kill-and-recover
// smoke's job; here the journal files simply stay behind exactly as the
// crashed process would leave them.)
func hardStop(srv *Server) {
	srv.mu.Lock()
	ln := srv.ln
	tenants := make([]*Tenant, 0, len(srv.tenants))
	for _, tn := range srv.tenants {
		tenants = append(tenants, tn)
	}
	srv.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, tn := range tenants {
		tn.stop()
	}
	for _, tn := range tenants {
		<-tn.Done()
	}
}

// TestDaemonRestartRecoversByteIdentical is the second determinism
// gate: the whole daemon dies (no drain, no goodbye) mid-script, a new
// daemon process-equivalent recovers the fleet from the same journal
// directory, and the remaining commands are byte-identical to an
// uninterrupted run.
func TestDaemonRestartRecoversByteIdentical(t *testing.T) {
	const tenant = "lazarus"
	const split = 4 // commands run before the "kill"
	want := recoveryReference(t, tenant)

	jdir := t.TempDir()
	cfg := Config{
		NewRunner:  flakyFactory(&crashSwitch{}),
		JournalDir: jdir,
		TenantIdle: -1,
		Logf:       func(string, ...any) {},
	}

	// Daemon one: run the first half of the script, then die hard.
	srvA, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lnA, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneA := make(chan error, 1)
	go func() { doneA <- srvA.Serve(lnA) }()
	c, err := Dial(lnA.Addr().String(), tenant)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]string, len(recoveryScript))
	for i := 0; i < split; i++ {
		resp, err := c.Run(recoveryScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("%q: %v %q", recoveryScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	c.Close()
	hardStop(srvA)
	<-doneA // accept error from the closed listener; the point is it returned

	// Daemon two: same config, same journal directory, -recover.
	srvB, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	n, err := srvB.RecoverJournals()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RecoverJournals = %d, want 1", n)
	}
	lnB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	doneB := make(chan error, 1)
	go func() { doneB <- srvB.Serve(lnB) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srvB.Shutdown(ctx)
		<-doneB
	})

	c2 := dialRecovered(t, lnB.Addr().String(), tenant)
	defer c2.Close()
	for i := split; i < len(recoveryScript); i++ {
		resp, err := c2.Run(recoveryScript[i])
		if err != nil || resp.Error != "" {
			t.Fatalf("post-restart %q: %v %q", recoveryScript[i], err, resp.Error)
		}
		got[i] = resp.Output
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("command %q diverged across daemon restart\nwant:\n%s\ngot:\n%s",
				recoveryScript[i], want[i], got[i])
		}
	}

	m := srvB.MetricsSnapshot()
	if m["serve.recovery.restored"] != 1 {
		t.Errorf("recovery.restored = %v, want 1", m["serve.recovery.restored"])
	}
	if m["serve.recovery.recovered"] != 1 {
		t.Errorf("recovery.recovered = %v, want 1", m["serve.recovery.recovered"])
	}
	if m["serve.recovery.replayed_commands"] != float64(split) {
		t.Errorf("recovery.replayed_commands = %v, want %d", m["serve.recovery.replayed_commands"], split)
	}
	st := srvB.RecoveryStatus()
	if !st.Enabled || st.Restored != 1 || len(st.Quarantined) != 0 {
		t.Errorf("RecoveryStatus = %+v", st)
	}
}

// TestRecoverEmptyJournalStartsFresh: a crash inside journal.Create
// leaves an empty file with no open record. Nothing was journaled, so
// recovery starts that tenant fresh instead of crash-looping it into
// quarantine.
func TestRecoverEmptyJournalStartsFresh(t *testing.T) {
	jdir := t.TempDir()
	if err := os.WriteFile(filepath.Join(jdir, "t-fresh.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		NewRunner:  flakyFactory(&crashSwitch{}),
		JournalDir: jdir,
		TenantIdle: -1,
		Logf:       func(string, ...any) {},
	})
	if err != nil {
		t.Fatal(err)
	}
	if n, err := srv.RecoverJournals(); err != nil || n != 1 {
		t.Fatalf("RecoverJournals = (%d, %v), want (1, nil)", n, err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	c := dialRecovered(t, ln.Addr().String(), "fresh")
	resp, err := c.Run("pwd")
	c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if serr := srv.Shutdown(ctx); serr != nil {
		t.Fatal(serr)
	}
	<-done
	if err != nil || resp.Error != "" || resp.Output != "/\n" {
		t.Fatalf("pwd on the fresh tenant = (%+v, %v), want /", resp, err)
	}
	j, entries, err := journal.Recover(jdir, "fresh", journal.Options{})
	if err != nil {
		t.Fatalf("journal after the fresh start: %v", err)
	}
	j.Close()
	if len(entries) != 1 || entries[0].Line != "pwd" {
		t.Fatalf("journal after the fresh start holds %+v, want the one pwd", entries)
	}
}

// TestPoisonCommandQuarantines: a command that deterministically
// panics crashes the tenant on every replay, so the supervisor must
// stop retrying after the restart budget, quarantine the tenant naming
// the poisonous journal entry, truncate the journal past it, reject
// hellos with the typed code — and a ClearQuarantine over the wire
// resurrects the good prefix.
func TestPoisonCommandQuarantines(t *testing.T) {
	const tenant = "toxic"
	jdir := t.TempDir()
	cfg := Config{
		NewRunner: func(string, uint64) (Runner, error) {
			return &fakeRunner{fn: func(line string) (string, error) {
				if line == "boom" {
					panic("poison: deterministic crash")
				}
				return "ran:" + line + "\n", nil
			}}, nil
		},
		JournalDir:     jdir,
		RestartBudget:  2,
		RestartBackoff: time.Millisecond,
		TenantIdle:     -1,
	}
	srv, addr := startServer(t, cfg)

	c, err := Dial(addr, tenant)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{"a", "b"} {
		if resp, err := c.Run(line); err != nil || resp.Error != "" {
			t.Fatalf("%q: %v %q", line, err, resp.Error)
		}
	}
	if resp, err := c.Run("boom"); err != nil || resp.Code != CodeTenantCrashed {
		t.Fatalf("boom = (%+v, %v), want code %q", resp, err, CodeTenantCrashed)
	}
	c.Close()

	// Supervised restarts replay [a b boom] and crash at boom every
	// time; once the budget (2) is spent the tenant is quarantined.
	var q QuarantineInfo
	deadline := time.Now().Add(30 * time.Second)
	for {
		st := srv.RecoveryStatus()
		if len(st.Quarantined) == 1 {
			q = st.Quarantined[0]
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("tenant never quarantined; status %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if q.Tenant != tenant || q.Index != 2 || q.Line != "boom" || q.Restarts != 2 {
		t.Errorf("quarantine = %+v, want tenant %q entry 2 %q after 2 restarts", q, tenant, "boom")
	}
	if !strings.Contains(q.Reason, ErrPoisonCommand.Error()) {
		t.Errorf("quarantine reason %q does not name the poison command", q.Reason)
	}

	// Hellos are rejected with the typed, non-transient code.
	if _, err := Dial(addr, tenant); err == nil {
		t.Fatal("hello to quarantined tenant succeeded")
	} else {
		var rej *RejectedError
		if !errors.As(err, &rej) || rej.Code != CodeQuarantined || rej.Transient {
			t.Fatalf("quarantined hello rejection = %v, want code %q", err, CodeQuarantined)
		}
	}

	// The poison entry (and everything after) was amputated: only the
	// good prefix [a b] remains on disk.
	jn, entries, err := journal.Recover(jdir, tenant, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	jn.Close()
	if len(entries) != 2 || entries[0].Line != "a" || entries[1].Line != "b" {
		t.Fatalf("journal after quarantine = %+v, want [a b]", entries)
	}

	// Clearing the quarantine over the wire resurrects the good prefix.
	probe, err := Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer probe.Close()
	st, err := probe.Recovery(tenant)
	if err != nil {
		t.Fatalf("recovery(clear): %v", err)
	}
	if len(st.Quarantined) != 0 {
		t.Errorf("quarantine not cleared: %+v", st)
	}
	c2 := dialRecovered(t, addr, tenant)
	defer c2.Close()
	if resp, err := c2.Run("c"); err != nil || resp.Output != "ran:c\n" {
		t.Fatalf("command after clear = (%+v, %v)", resp, err)
	}

	m := srv.MetricsSnapshot()
	if m["serve.recovery.quarantined"] != 1 {
		t.Errorf("recovery.quarantined = %v, want 1", m["serve.recovery.quarantined"])
	}
	// The original panic plus two replay crashes.
	if m["serve.tenants.crashed"] != 3 {
		t.Errorf("tenants.crashed = %v, want 3", m["serve.tenants.crashed"])
	}
	if m["serve.recovery.restarts"] != 2 {
		t.Errorf("recovery.restarts = %v, want 2", m["serve.recovery.restarts"])
	}
}
