package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"liteview/internal/core"
	"liteview/internal/serve"
	"liteview/internal/shell"
	"liteview/internal/telemetry"
	"liteview/internal/testbed"
)

// probe is the benchmark's Config.NewRunner product: the shipped
// serve.ShellRunner, wrapped so the benchmark keeps a handle on the
// tenant's testbed and times every Runner.Run from outside. All fields
// except the immutable ones are touched only on the tenant goroutine
// until the daemon has drained.
type probe struct {
	inner *serve.ShellRunner
	tb    *testbed.Testbed
	ws    *core.Workstation
	ph    phases
	epoch time.Time
	trace bool

	runs int
	// start is the counter snapshot taken just before the first load
	// command (run 2: run 1 is the set-up's first command).
	start counters
	// durs holds the Runner.Run duration of every load command, in
	// order; spans holds the traced run's tenant-side spans.
	durs  []time.Duration
	spans []spanRec
}

func (p *probe) Run(line string) (string, error) {
	p.runs++
	load := p.runs > 1
	if p.runs == 2 {
		p.start = snapshot(p.tb, p.ws)
	}
	t0 := time.Now()
	out, err := p.inner.Run(line)
	t1 := time.Now()
	if load {
		p.durs = append(p.durs, t1.Sub(t0))
		if p.trace {
			p.spans = append(p.spans, spanRec{Name: "runner.run", Start: t0.Sub(p.epoch), End: t1.Sub(p.epoch)})
		}
	}
	return out, err
}

func (p *probe) Cwd() string { return p.inner.Cwd() }

// Telemetry forwards the shell's recorder, so the tenant is wired for
// live watches exactly as lvserved wires it.
func (p *probe) Telemetry() *telemetry.Recorder { return p.inner.Telemetry() }

// daemon is one in-process lvserved: serve.New plus Serve on a loopback
// listener, with the benchmark's runner factory.
type daemon struct {
	srv    *serve.Server
	addr   string
	served chan error

	mu     sync.Mutex
	probes map[string]*probe
}

// benchConfig is lvserved's configuration for the benchmark: defaults
// throughout, except that rate limiting is off (the token bucket and
// edge backoff would pace the closed loop and measure the policy) and
// the journal is on with the default fsync batching.
func benchConfig(seed uint64, journalDir string, newRunner func(string, uint64) (serve.Runner, error)) serve.Config {
	return serve.Config{
		NewRunner:  newRunner,
		SeedFor:    func(tenant string) uint64 { return serve.TenantSeed(seed, tenant) },
		RatePerSec: -1,
		JournalDir: journalDir,
	}
}

func startDaemon(w *workload, seed uint64, journalDir string, epoch time.Time, trace bool) (*daemon, error) {
	d := &daemon{probes: make(map[string]*probe), served: make(chan error, 1)}
	newRunner := func(tenant string, tseed uint64) (serve.Runner, error) {
		p := &probe{epoch: epoch, trace: trace}
		tb, ws, err := w.build(tseed, &p.ph)
		if err != nil {
			return nil, err
		}
		sh, err := shell.NewForTestbed(tb, ws, io.Discard)
		if err != nil {
			return nil, err
		}
		if p.inner, err = serve.NewShellRunner(sh); err != nil {
			return nil, err
		}
		p.tb, p.ws = tb, ws
		d.mu.Lock()
		d.probes[tenant] = p
		d.mu.Unlock()
		return p, nil
	}
	srv, err := serve.New(benchConfig(seed, journalDir, newRunner))
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d.srv, d.addr = srv, ln.Addr().String()
	go func() { d.served <- srv.Serve(ln) }()
	return d, nil
}

// stop drains the daemon and waits for Serve to return. After it
// returns every tenant goroutine has exited, so the probes may be read.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	err := d.srv.Shutdown(ctx)
	return errors.Join(err, <-d.served)
}

func (d *daemon) probe(tenant string) *probe {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.probes[tenant]
}

func tenantName(i int) string { return fmt.Sprintf("t%02d", i) }

// owned lists the tenants client loop l drives.
func (w *workload) owned(l int) []int {
	var out []int
	for i := l; i < w.tenants; i += w.loops {
		out = append(out, i)
	}
	return out
}

// forLoops runs fn once per client loop, concurrently, and joins their
// errors.
func (w *workload) forLoops(fn func(loop int) error) error {
	errs := make([]error, w.loops)
	var wg sync.WaitGroup
	for l := 0; l < w.loops; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			errs[l] = fn(l)
		}(l)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setUp starts a daemon and returns once every tenant has answered its
// first command: testbed build, protocol attach, LiteView install,
// warm-up and hello, all inside the timed interval.
func setUp(w *workload, seed uint64, journalDir string, epoch time.Time, trace bool) (*daemon, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(w, seed, journalDir, epoch, trace)
	if err != nil {
		return nil, 0, err
	}
	err = w.forLoops(func(l int) error {
		var clients []*serve.Client
		defer func() {
			for _, c := range clients {
				c.Close()
			}
		}()
		// Hello every owned tenant first, so their builds overlap.
		for _, ti := range w.owned(l) {
			c, err := serve.Dial(d.addr, tenantName(ti))
			if err != nil {
				return err
			}
			clients = append(clients, c)
		}
		for i, c := range clients {
			resp, err := c.Run("pwd")
			if err != nil {
				return err
			}
			if resp.Code != "" || resp.Output != "/\n" {
				return fmt.Errorf("tenant %s: first command: %q %s", tenantName(w.owned(l)[i]), resp.Output, resp.Error)
			}
		}
		return nil
	})
	elapsed := time.Since(t0)
	if err != nil {
		return nil, 0, errors.Join(err, d.stop())
	}
	return d, elapsed, nil
}
