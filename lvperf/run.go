package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"liteview/internal/serve"
)

// options selects one benchmark run.
type options struct {
	w    *workload
	seed uint64
	// size is the fixed work unit handed to the workload's script.
	size  int
	trace bool
	// dir receives the journal, and in a traced run the CPU profile and
	// the span dump.
	dir string
}

// result is everything one run measured.
type result struct {
	attempted, failed, degraded int
	// malformed holds the first few outputs that failed their form
	// check; any makes the run incorrect.
	malformed []string
	// digest covers every tenant's digest; tenantDigests chains each
	// tenant's responses in order (see digestStep).
	digest        string
	tenantDigests []uint64

	setups  []time.Duration
	builds  []time.Duration // Σ tenant build time, one per set-up
	warmups []time.Duration // Σ tenant warm-up time, one per set-up

	// Per load command, in tenant-then-script order.
	kinds  []string
	client []time.Duration // Client.Run wall latency
	runner []time.Duration // the same command's Runner.Run
	opens  []time.Duration // serve.Dial (connect + hello) per session

	loadWall     time.Duration
	work         counters // summed layer deltas over the load
	journalBytes int64
	allocBytes   uint64
	gcCycles     uint32
	maxRSS       float64 // MiB

	spans   []spanRec
	profile *cpuProfile
}

// run performs one benchmark run: set the daemon up w.setups times
// (timing each), keep the last, drive the fixed script through it with
// w.loops closed-loop clients, drain, and collect.
func run(o options) (*result, error) {
	w := o.w
	epoch := time.Now()
	scripts := make([][][]command, w.tenants)
	for i := range scripts {
		scripts[i] = w.script(rand.New(rand.NewPCG(o.seed, uint64(i))), o.size)
	}
	res := &result{}
	d, jdir, err := res.setUpRepeatedly(o, epoch)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(jdir)
	profPath := filepath.Join(o.dir, fmt.Sprintf("%s-seed%d.cpu.pprof", w.name, o.seed))
	loads, err := res.load(o, d, jdir, scripts, epoch, profPath)
	if err != nil {
		return nil, err
	}

	digest := fnv.New64a()
	var nextID uint64 = 1
	for i := range loads {
		ld := &loads[i]
		p := d.probe(tenantName(i))
		if len(p.durs) != len(ld.client) {
			return nil, fmt.Errorf("tenant %s: %d commands served, %d sent", tenantName(i), len(p.durs), len(ld.client))
		}
		res.work.add(snapshot(p.tb, p.ws).sub(p.start))
		res.attempted += len(ld.client)
		res.failed += ld.failed
		res.degraded += ld.degraded
		res.malformed = append(res.malformed, ld.malformed...)
		fmt.Fprintf(digest, "%s %016x\n", tenantName(i), ld.digest)
		res.tenantDigests = append(res.tenantDigests, ld.digest)
		res.kinds = append(res.kinds, ld.kinds...)
		res.client = append(res.client, ld.client...)
		res.runner = append(res.runner, p.durs...)
		res.opens = append(res.opens, ld.opens...)
		if o.trace {
			nextID = res.linkSpans(tenantName(i), ld, p, nextID)
		}
	}
	res.digest = fmt.Sprintf("%016x", digest.Sum64())

	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, err
	}
	res.maxRSS = float64(ru.Maxrss) / 1024 // Linux reports KiB

	if o.trace {
		prof, err := attribute(profPath)
		if err != nil {
			return nil, fmt.Errorf("attributing the CPU profile: %w", err)
		}
		res.profile = prof
	}
	return res, nil
}

// setUpRepeatedly sets the daemon up w.setups times, timing each, and
// returns the last one running with its journal directory.
func (res *result) setUpRepeatedly(o options, epoch time.Time) (*daemon, string, error) {
	w := o.w
	var d *daemon
	var jdir string
	for k := 0; k < w.setups; k++ {
		if d != nil {
			if err := errors.Join(d.stop(), os.RemoveAll(jdir)); err != nil {
				return nil, "", err
			}
		}
		runtime.GC()
		var err error
		if jdir, err = os.MkdirTemp(o.dir, "journal-"); err != nil {
			return nil, "", err
		}
		var el time.Duration
		if d, el, err = setUp(w, o.seed, jdir, epoch, o.trace && k == w.setups-1); err != nil {
			return nil, "", errors.Join(fmt.Errorf("set-up %d: %w", k, err), os.RemoveAll(jdir))
		}
		res.setups = append(res.setups, el)
		var b, wu time.Duration
		for i := 0; i < w.tenants; i++ {
			p := d.probe(tenantName(i))
			b += p.ph.build
			wu += p.ph.warmup
		}
		res.builds = append(res.builds, b)
		res.warmups = append(res.warmups, wu)
	}
	return d, jdir, nil
}

// load drives the scripts through d after a garbage collection, under
// the CPU profiler in a traced run, then drains d. d is stopped on
// every path.
func (res *result) load(o options, d *daemon, jdir string, scripts [][][]command, epoch time.Time, profPath string) (loads []tenantLoad, err error) {
	defer func() { err = errors.Join(err, d.stop()) }()
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if o.trace {
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return nil, err
		}
	}
	loads = make([]tenantLoad, o.w.tenants)
	t0 := time.Now()
	loadErr := o.w.forLoops(func(l int) error {
		return drive(d.addr, o.w, l, scripts, loads, epoch, o.trace)
	})
	res.loadWall = time.Since(t0)
	if o.trace {
		pprof.StopCPUProfile()
	}
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = ms1.NumGC - ms0.NumGC
	// Size the journal before the drain compacts it.
	res.journalBytes, err = dirBytes(jdir)
	return loads, errors.Join(loadErr, err)
}

// tenantLoad is what the client side saw of one tenant. Each tenant is
// driven by exactly one client loop, so no locking is needed.
type tenantLoad struct {
	kinds     []string
	client    []time.Duration
	opens     []time.Duration
	failed    int
	degraded  int
	malformed []string
	digest    uint64
	// sessions and cmds are the client-side spans of a traced run; cmds
	// parallels client.
	sessions []spanRec
	cmds     []spanRec
}

// drive is client loop l: for each session round, for each tenant it
// owns, dial and hello, run the session's commands one at a time
// (waiting for each reply, as an operator at lvctl does), say bye.
func drive(addr string, w *workload, l int, scripts [][][]command, loads []tenantLoad, epoch time.Time, trace bool) error {
	owned := w.owned(l)
	for r := range scripts[owned[0]] {
		for _, ti := range owned {
			ld := &loads[ti]
			t0 := time.Now()
			c, err := serve.Dial(addr, tenantName(ti))
			t1 := time.Now()
			if err != nil {
				return fmt.Errorf("tenant %s: %w", tenantName(ti), err)
			}
			ld.opens = append(ld.opens, t1.Sub(t0))
			sess := len(ld.sessions)
			if trace {
				ld.sessions = append(ld.sessions, spanRec{Name: "session.open", Start: t0.Sub(epoch), End: t1.Sub(epoch)})
			}
			for _, cmd := range scripts[ti][r] {
				s := time.Now()
				resp, err := c.Run(cmd.line)
				e := time.Now()
				if err != nil {
					c.Close()
					return fmt.Errorf("tenant %s: %q: %w", tenantName(ti), cmd.line, err)
				}
				ld.kinds = append(ld.kinds, cmd.kind)
				ld.client = append(ld.client, e.Sub(s))
				if trace {
					ld.cmds = append(ld.cmds, spanRec{Name: "client.run", Parent: uint64(sess), Start: s.Sub(epoch), End: e.Sub(epoch)})
				}
				oc, ferr := cmd.check(resp.Output, resp.Cwd, resp.Code)
				switch oc {
				case degraded:
					ld.degraded++
				case failed:
					ld.failed++
				}
				if ferr != nil && len(ld.malformed) < 5 {
					ld.malformed = append(ld.malformed, fmt.Sprintf("tenant %s: %v", tenantName(ti), ferr))
				}
				ld.digest = digestStep(ld.digest, cmd.line, resp.Output, resp.Cwd, resp.Code)
			}
			if err := c.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

// digestStep chains one response into a tenant's running output
// digest.
func digestStep(prev uint64, line, output, cwd, code string) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%x %s\x00%s\x00%s\x00%s\x00", prev, line, output, cwd, code)
	return h.Sum64()
}

// dirBytes totals the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || !e.Type().IsRegular() {
			return err
		}
		info, err := e.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
