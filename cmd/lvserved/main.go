// Command lvserved is the LiteView control-plane daemon: a long-lived
// multi-tenant service that owns a pool of simulated testbeds (one
// goroutine-confined simulation per tenant) and exposes the workstation
// command set over a newline-delimited JSON protocol to many concurrent
// operator sessions (see cmd/lvctl).
//
//	lvserved -listen 127.0.0.1:7117 -topo line -nodes 9 -spacing 20
//
// Each tenant named in a client hello gets its own deployment built
// from the topology flags, with a seed derived deterministically from
// the base seed and the tenant name — the same tenant name always
// replays the same testbed, so service output is reproducible
// per tenant. SIGTERM (or SIGINT) drains gracefully: stop accepting,
// finish or cancel in-flight commands, stop every simulation, flush the
// service metrics, exit 0.
//
// With -journal <dir> the daemon write-ahead journals every accepted
// command and supervises crashing tenants back to life by replay; after
// a crash or kill -9 of the whole daemon, restarting with the same
// -journal plus -recover resurrects every tenant exactly where its
// journal left off.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"liteview/internal/cli"
	"liteview/internal/serve"
	"liteview/internal/telemetry"
)

func main() {
	var dep cli.DeploymentFlags
	dep.Register(flag.CommandLine)
	var (
		listen     = flag.String("listen", "127.0.0.1:7117", "wire-protocol listen address")
		admin      = flag.String("admin", "", "HTTP admin address for /healthz, /readyz, /metricz (empty disables)")
		maxTenants = flag.Int("max-tenants", 64, "live tenant cap")
		queue      = flag.Int("queue", 16, "per-tenant command queue depth")
		cmdTimeout = flag.Duration("cmd-timeout", 30*time.Second, "per-command wall-clock deadline")
		idle       = flag.Duration("idle", 5*time.Minute, "session idle timeout")
		tenantIdle = flag.Duration("tenant-idle", 15*time.Minute, "reap tenants unused for this long")
		drain      = flag.Duration("drain", 30*time.Second, "graceful drain deadline on SIGTERM")
		pprofOn    = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ on the admin address")
		rate       = flag.Float64("rate", 50, "per-tenant commands per second (negative disables)")
		burst      = flag.Float64("burst", 0, "per-tenant admission burst (0 = 2x rate)")
		brkN       = flag.Int("breaker-threshold", 0, "consecutive service failures that open a tenant's breaker (0 = default)")
		brkCool    = flag.Duration("breaker-cooldown", 0, "open-breaker cooldown (0 = default)")
		quiet      = flag.Bool("quiet", false, "suppress service event log lines")

		journalDir = flag.String("journal", "", "write-ahead command journal directory (empty disables crash recovery)")
		recoverOn  = flag.Bool("recover", false, "resurrect tenants from their journals at startup (needs -journal)")
		jnlFsync   = flag.Int("journal-fsync", 8, "fsync the journal every N appends (1 = every append)")
		budget     = flag.Int("restart-budget", 3, "supervised restarts before a crashing tenant is quarantined")
		backoff    = flag.Duration("restart-backoff", 100*time.Millisecond, "initial supervised-restart backoff (doubles, capped)")
	)
	flag.Parse()

	// Validate before anything listens: a daemon with a zero-capacity
	// queue or a negative deadline would start, then wedge on its first
	// command. Usage errors exit 2 like flag parse failures do.
	usage := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "lvserved: "+format+"\n", args...)
		flag.Usage()
		os.Exit(2)
	}
	switch {
	case *queue <= 0:
		usage("-queue must be positive, got %d", *queue)
	case *cmdTimeout <= 0:
		usage("-cmd-timeout must be positive, got %v", *cmdTimeout)
	case *idle <= 0:
		usage("-idle must be positive, got %v", *idle)
	case *drain <= 0:
		usage("-drain must be positive, got %v", *drain)
	case *maxTenants <= 0:
		usage("-max-tenants must be positive, got %d", *maxTenants)
	case *journalDir != "" && *jnlFsync <= 0:
		usage("-journal-fsync must be positive, got %d", *jnlFsync)
	case *budget < 1:
		usage("-restart-budget must be at least 1, got %d", *budget)
	case *backoff <= 0:
		usage("-restart-backoff must be positive, got %v", *backoff)
	case *recoverOn && *journalDir == "":
		usage("-recover needs -journal")
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	srv, err := serve.New(serve.Config{
		NewRunner:         newRunner(dep),
		SeedFor:           func(tenant string) uint64 { return serve.TenantSeed(dep.Seed, tenant) },
		MaxTenants:        *maxTenants,
		QueueDepth:        *queue,
		CmdTimeout:        *cmdTimeout,
		IdleTimeout:       *idle,
		TenantIdle:        *tenantIdle,
		RatePerSec:        *rate,
		Burst:             *burst,
		BreakerThreshold:  *brkN,
		BreakerCooldown:   *brkCool,
		JournalDir:        *journalDir,
		JournalFsyncEvery: *jnlFsync,
		RestartBudget:     *budget,
		RestartBackoff:    *backoff,
		Logf:              logf,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvserved:", err)
		os.Exit(1)
	}
	if *recoverOn {
		n, err := srv.RecoverJournals()
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvserved: recover:", err)
			os.Exit(1)
		}
		logf("lvserved: recovering %d tenant(s) from %s", n, *journalDir)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvserved:", err)
		os.Exit(1)
	}
	if *admin != "" {
		adminLn, err := net.Listen("tcp", *admin)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lvserved:", err)
			os.Exit(1)
		}
		handler := srv.AdminHandler()
		endpoints := "/healthz /readyz /metricz /streamz"
		if *pprofOn {
			// Profiling is opt-in: the handlers only exist behind -pprof,
			// and only on the (normally loopback) admin listener.
			mux := http.NewServeMux()
			mux.Handle("/", handler)
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			handler = mux
			endpoints += " /debug/pprof/"
		}
		go http.Serve(adminLn, handler)
		logf("lvserved: admin on http://%s (%s)", adminLn.Addr(), endpoints)
	}
	logf("lvserved: listening on %s (topo=%s)", ln.Addr(), dep.Topo)

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case got := <-sig:
		logf("lvserved: %v received, draining (deadline %v)", got, *drain)
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, "lvserved: accept:", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	err = srv.Shutdown(ctx)
	// Flush telemetry: the final service metrics snapshot is the drain's
	// last act, so a scraped daemon never exits with unreported counts.
	fmt.Fprint(os.Stderr, telemetry.FormatSnapshot(srv.MetricsSnapshot()))
	if err != nil {
		fmt.Fprintln(os.Stderr, "lvserved: drain:", err)
		os.Exit(1)
	}
	logf("lvserved: clean drain, goodbye")
}

// newRunner builds the per-tenant simulation factory: each tenant gets
// the deployment every tool runs (cli.BuildManaged, warmed up, a shell
// at node 1) from the seed the service hands it (Config.SeedFor, i.e.
// serve.TenantSeed over the base seed and tenant name — or, under
// recovery, the seed its journal recorded). The factory runs on the
// tenant's own goroutine — the testbed is born and dies there.
func newRunner(dep cli.DeploymentFlags) func(string, uint64) (serve.Runner, error) {
	return func(tenant string, seed uint64) (serve.Runner, error) {
		d := dep
		d.Seed = seed
		tb, err := d.BuildManaged()
		if err != nil {
			return nil, err
		}
		sh, err := d.Session(tb, io.Discard)
		if err != nil {
			return nil, err
		}
		return serve.NewShellRunner(sh)
	}
}
