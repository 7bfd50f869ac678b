package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"liteview/internal/core"
	"liteview/internal/journal"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Tenant is one simulated testbed behind the service: a single
// goroutine owns its Runner (and therefore its whole simulation) for
// the tenant's entire life, draining a bounded command queue. Sessions
// submit commands through Submit, which applies the admission layer —
// token bucket, circuit breaker, bounded queue — and waits under a
// wall-clock deadline. A panic inside the simulation kills only this
// tenant: the goroutine reports the crash, fails queued commands, and
// exits; the daemon keeps serving every other tenant.
//
// With journaling on, the goroutine writes every accepted command to
// the tenant's write-ahead journal before executing it, and a tenant
// born in recover mode first rebuilds the simulation from the journaled
// seed and replays the journal — byte-identical state by DESIGN §10 —
// before serving the queue.
type Tenant struct {
	name  string
	seed  uint64
	queue chan *job
	quit  chan struct{} // closed by stop(); tells the loop to exit
	done  chan struct{} // closed when the loop has exited
	stop1 sync.Once
	clock func() time.Time
	epoch time.Time // breaker clock origin
	logf  func(format string, args ...any)

	// Supervision parameters, fixed at birth.
	recoverMode bool          // replay an existing journal instead of starting fresh
	delay       time.Duration // backoff before (re)building the simulation
	// onCrash is the server's supervisor hook, called off the tenant
	// loop exactly once if the simulation panics (or its build fails
	// under supervision).
	onCrash func(t *Tenant, reason error)
	// onRecovered is called once after a successful recover-mode replay.
	onRecovered func(t *Tenant, replayed int, dur time.Duration)

	// jnl is the tenant's open journal, touched only by the tenant
	// goroutine. Nil when journaling is off or permanently failed.
	jnl *journal.Journal

	mu         sync.Mutex
	dead       error // non-nil once the tenant is unusable; the reason
	sessions   int
	lastUsed   time.Time
	limiter    *bucket
	brk        *core.Breaker
	recovering bool
	restarts   int
	crash      crashInfo
	// rec is the tenant simulation's telemetry recorder, captured once
	// on the tenant goroutine right after the Runner is built (nil when
	// the Runner exposes none). Service goroutines only Subscribe to it.
	rec *telemetry.Recorder
}

// crashInfo pins a tenant death to its cause so the supervisor can tell
// a poisonous journaled command (quarantine + truncate) from a build or
// journal failure (quarantine only).
type crashInfo struct {
	kind  string // "panic", "replay", "build", "journal"
	index uint64 // journal index of the offending command
	line  string // the offending command
	valid bool   // index/line refer to a real journal entry
}

// tenantParams is everything that distinguishes one tenant incarnation
// from the next: fresh vs recovering, and the supervisor's bookkeeping.
type tenantParams struct {
	name        string
	seed        uint64
	recover     bool
	delay       time.Duration
	restarts    int
	onCrash     func(*Tenant, error)
	onRecovered func(*Tenant, int, time.Duration)
}

// job is one queued command and its reply path. resp has capacity 1 so
// the tenant loop never blocks on a waiter that already gave up.
type job struct {
	line      string
	resp      chan jobResult
	abandoned atomic.Bool // waiter hit its deadline while the job was queued
}

type jobResult struct {
	out string
	cwd string
	err error
}

// newTenant builds the tenant and starts its simulation goroutine. The
// Runner is constructed on that goroutine — from first event to last,
// the simulation never migrates.
func newTenant(p tenantParams, cfg Config, clock func() time.Time) *Tenant {
	now := clock()
	t := &Tenant{
		name:        p.name,
		seed:        p.seed,
		queue:       make(chan *job, cfg.QueueDepth),
		quit:        make(chan struct{}),
		done:        make(chan struct{}),
		clock:       clock,
		epoch:       now,
		logf:        cfg.Logf,
		recoverMode: p.recover,
		delay:       p.delay,
		onCrash:     p.onCrash,
		onRecovered: p.onRecovered,
		lastUsed:    now,
		limiter:     newBucket(cfg.RatePerSec, cfg.Burst, now),
		recovering:  p.recover || p.delay > 0,
		restarts:    p.restarts,
	}
	threshold := cfg.BreakerThreshold
	if threshold == 0 {
		threshold = core.DefaultBreakerThreshold
	}
	cooldown := cfg.BreakerCooldown
	if cooldown == 0 {
		cooldown = core.DefaultBreakerCooldown
	}
	// The admission breaker is the same three-state machine that guards
	// the workstation's per-node command path (internal/core), driven by
	// wall time instead of virtual.
	t.brk = &core.Breaker{
		Threshold: threshold,
		Cooldown:  sim.Time(cooldown),
		Now:       func() sim.Time { return sim.Time(t.clock().Sub(t.epoch)) },
	}
	go t.loop(cfg)
	return t
}

// Name returns the tenant's name.
func (t *Tenant) Name() string { return t.name }

// journaled reports whether a command line belongs in the write-ahead
// journal. Observability toggles (`trace ...`) are deliberately not
// journaled: they don't change simulation state (the zero-perturbation
// contract, DESIGN §12), and skipping them keeps telemetry recording
// off during replay — a resurrected tenant re-executes history without
// re-emitting it.
func journaled(line string) bool {
	s := strings.TrimSpace(line)
	if s == "" {
		return false
	}
	return s != "trace" && !strings.HasPrefix(s, "trace ")
}

// loop is the tenant goroutine: (after any supervised backoff) open or
// recover the journal, build the simulation, replay journaled history,
// then serve the queue until stop or crash.
func (t *Tenant) loop(cfg Config) {
	defer close(t.done)
	defer t.closeJournal() // backstop; every exit path closes explicitly first

	if t.delay > 0 {
		timer := time.NewTimer(t.delay)
		select {
		case <-t.quit:
			timer.Stop()
			t.kill(fmt.Errorf("%w: tenant %q stopped", ErrTenantDead, t.name))
			return
		case <-timer.C:
		}
	}

	var entries []journal.Entry
	seed := t.seed
	if cfg.JournalDir != "" {
		opt := journal.Options{
			FsyncEvery: cfg.JournalFsyncEvery,
			Logf:       t.logf,
		}
		if t.recoverMode {
			jnl, ents, err := journal.Recover(cfg.JournalDir, t.name, opt)
			if errors.Is(err, journal.ErrNoJournal) {
				// Nothing was journaled (a crash inside Create leaves an
				// empty file), so there is no history to lose: start fresh.
				t.logf("serve: tenant %q: %v; starting fresh", t.name, err)
				jnl, err = journal.Create(cfg.JournalDir, t.name, seed, opt)
			}
			if err != nil {
				t.fail("journal", fmt.Errorf("recovering journal for tenant %q: %w", t.name, err))
				return
			}
			if jnl.Seed() != seed {
				// The journaled seed wins: it is what the recorded commands
				// actually ran against.
				t.logf("serve: tenant %q journal seed %d != derived seed %d; using the journal's",
					t.name, jnl.Seed(), seed)
				seed = jnl.Seed()
			}
			t.jnl, entries = jnl, ents
		} else {
			jnl, err := journal.Create(cfg.JournalDir, t.name, seed, opt)
			if err != nil {
				t.fail("journal", fmt.Errorf("creating journal for tenant %q: %w", t.name, err))
				return
			}
			t.jnl = jnl
		}
	}

	r, err := buildRunner(cfg.NewRunner, t.name, seed)
	if err != nil {
		t.fail("build", err)
		return
	}
	if src, ok := r.(TelemetrySource); ok {
		// Materialize the recorder here, on the goroutine that owns the
		// simulation, then publish the pointer for watch sessions. The
		// recorder starts stopped; `trace on` submitted through the
		// queue turns it on without leaving this goroutine. Replay never
		// touches it: trace commands are not journaled, so a resurrected
		// tenant replays with recording suppressed by construction.
		rec := src.Telemetry()
		t.mu.Lock()
		t.rec = rec
		t.mu.Unlock()
	}

	if t.recoverMode {
		start := time.Now()
		for _, e := range entries {
			select {
			case <-t.quit:
				t.closeJournal()
				t.kill(fmt.Errorf("%w: tenant %q stopped mid-replay", ErrTenantDead, t.name))
				return
			default:
			}
			if !journaled(e.Line) {
				continue // defensive: old journals must never replay trace toggles
			}
			res, crashed := t.runOne(r, e.Line)
			if crashed {
				t.noteCrash(crashInfo{kind: "replay", index: e.Index, line: e.Line, valid: true})
				t.closeJournal()
				t.kill(fmt.Errorf("%w: tenant %q: %v", ErrTenantDead, t.name, res.err))
				if t.onCrash != nil {
					t.onCrash(t, res.err)
				}
				return
			}
			// Replay discards output: the original session already saw it.
		}
		t.mu.Lock()
		t.recovering = false
		t.mu.Unlock()
		if t.onRecovered != nil {
			t.onRecovered(t, len(entries), time.Since(start))
		}
	} else {
		t.mu.Lock()
		t.recovering = false
		t.mu.Unlock()
	}

	for {
		select {
		case <-t.quit:
			t.closeJournal()
			t.kill(fmt.Errorf("%w: tenant %q stopped", ErrTenantDead, t.name))
			return
		case j := <-t.queue:
			if j.abandoned.Load() {
				continue // its session gave up while it sat in the queue
			}
			idx, idxValid := uint64(0), false
			if t.jnl != nil && journaled(j.line) {
				var jerr error
				idx, jerr = t.jnl.Append(j.line)
				if jerr != nil {
					// A dead journal must not take the tenant with it: keep
					// serving, loudly, without recovery for this incarnation.
					t.logf("serve: tenant %q journaling disabled: %v", t.name, jerr)
					t.closeJournal()
				} else {
					idxValid = true
				}
			}
			res, crashed := t.runOne(r, j.line)
			if crashed {
				// Supervise before answering: by the time the session sees
				// the crash, this corpse is out of the tenant table (and the
				// recovering replacement, if any, is in), so an immediate
				// re-hello never races onto the dying incarnation.
				t.noteCrash(crashInfo{kind: "panic", index: idx, line: j.line, valid: idxValid})
				t.closeJournal()
				t.kill(fmt.Errorf("%w: tenant %q: %v", ErrTenantDead, t.name, res.err))
				if t.onCrash != nil {
					t.onCrash(t, res.err)
				}
				j.resp <- res
				return
			}
			j.resp <- res
		}
	}
}

// buildRunner constructs the simulation with panic isolation: a
// factory that panics is a build failure, not a dead daemon.
func buildRunner(f func(string, uint64) (Runner, error), name string, seed uint64) (r Runner, err error) {
	defer func() {
		if p := recover(); p != nil {
			r, err = nil, fmt.Errorf("building tenant %q panicked: %v", name, p)
		}
	}()
	return f(name, seed)
}

// fail handles a pre-serve death (journal open or simulation build):
// mark the cause, release the journal, fail queued work, and let the
// supervisor decide whether to retry.
func (t *Tenant) fail(kind string, err error) {
	t.noteCrash(crashInfo{kind: kind})
	t.closeJournal()
	t.kill(fmt.Errorf("%w: %v", ErrTenantDead, err))
	if t.onCrash != nil {
		t.onCrash(t, err)
	}
}

// closeJournal releases the tenant's journal handle. It must run before
// onCrash on every death path: the supervisor's replacement tenant
// reopens the same files.
func (t *Tenant) closeJournal() {
	if t.jnl == nil {
		return
	}
	if err := t.jnl.Close(); err != nil {
		t.logf("serve: tenant %q journal close: %v", t.name, err)
	}
	t.jnl = nil
}

func (t *Tenant) noteCrash(c crashInfo) {
	t.mu.Lock()
	t.crash = c
	t.mu.Unlock()
}

// crashState returns the cause of death recorded by the loop.
func (t *Tenant) crashState() crashInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.crash
}

// runOne executes one command with panic isolation: a crash inside the
// simulation becomes an ErrTenantCrashed result instead of a dead daemon.
func (t *Tenant) runOne(r Runner, line string) (res jobResult, crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			t.logf("serve: tenant %q panicked running %q: %v\n%s", t.name, line, p, debug.Stack())
			res = jobResult{err: fmt.Errorf("%w: panic: %v", ErrTenantCrashed, p)}
			crashed = true
		}
	}()
	out, err := r.Run(line)
	return jobResult{out: out, cwd: r.Cwd(), err: err}, false
}

// kill marks the tenant dead and fails every queued command. Holding
// the mutex across the drain closes the race with Submit: a job is
// either enqueued before the death (drained here) or rejected after.
func (t *Tenant) kill(reason error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead == nil {
		t.dead = reason
	}
	for {
		select {
		case j := <-t.queue:
			j.resp <- jobResult{err: t.dead}
		default:
			return
		}
	}
}

// stop asks the tenant loop to exit after the in-flight command. Wait
// on Done() for completion.
func (t *Tenant) stop() { t.stop1.Do(func() { close(t.quit) }) }

// Done is closed once the tenant goroutine has exited.
func (t *Tenant) Done() <-chan struct{} { return t.done }

// Recorder returns the tenant simulation's telemetry recorder, or nil
// when the runner exposes none (or the build has not finished yet).
// Callers may only use the recorder's cross-goroutine-safe surface:
// Subscribe and Subscription methods.
func (t *Tenant) Recorder() *telemetry.Recorder {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.rec
}

// Dead returns the reap reason, or nil while the tenant serves.
func (t *Tenant) Dead() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

// Recovering reports whether the tenant is still rebuilding or
// replaying its journal.
func (t *Tenant) Recovering() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recovering
}

// Submit runs one command line on the tenant, waiting at most timeout
// of wall-clock time. It returns the command's output, the session
// cwd after the command, and the command's error. Admission failures
// (rate limit, open breaker, full queue) and deadline expiry surface as
// the package's typed errors without ever touching the simulation.
func (t *Tenant) Submit(line string, timeout time.Duration) (output, cwd string, err error) {
	now := t.clock()
	t.mu.Lock()
	if t.dead != nil {
		err := t.dead
		t.mu.Unlock()
		return "", "", err
	}
	t.lastUsed = now
	if !t.limiter.allow(now) {
		t.mu.Unlock()
		return "", "", fmt.Errorf("%w: tenant %q", ErrRateLimited, t.name)
	}
	if err := t.brk.Allow(); err != nil {
		t.mu.Unlock()
		return "", "", fmt.Errorf("tenant %q admission: %w", t.name, err)
	}
	j := &job{line: line, resp: make(chan jobResult, 1)}
	select {
	case t.queue <- j:
	default:
		t.mu.Unlock()
		return "", "", fmt.Errorf("%w: tenant %q (depth %d)", ErrQueueFull, t.name, cap(t.queue))
	}
	t.mu.Unlock()

	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case res := <-j.resp:
		t.record(serviceOK(res.err))
		return res.out, res.cwd, res.err
	case <-timer.C:
		j.abandoned.Store(true)
		t.record(false)
		return "", "", fmt.Errorf("%w: tenant %q after %v", ErrDeadline, t.name, timeout)
	}
}

// serviceOK classifies a command outcome for the admission breaker: the
// breaker guards the tenant's ability to service commands, so only
// service-level failures (crashes; deadlines are recorded by the
// caller) count against it. A command's own error — a typo, an
// unreachable destination — is the network's problem, not the tenant's.
func serviceOK(err error) bool {
	return !errors.Is(err, ErrTenantCrashed) && !errors.Is(err, ErrTenantDead)
}

func (t *Tenant) record(ok bool) {
	t.mu.Lock()
	t.brk.Record(ok)
	t.mu.Unlock()
}

// attach registers one more operator session on the tenant.
func (t *Tenant) attach() {
	t.mu.Lock()
	t.sessions++
	t.lastUsed = t.clock()
	t.mu.Unlock()
}

// detach unregisters a session.
func (t *Tenant) detach() {
	t.mu.Lock()
	t.sessions--
	t.mu.Unlock()
}

// idleFor reports whether the tenant has had no session and no command
// for at least d. A recovering tenant is never idle: reaping one
// mid-replay would race the supervisor.
func (t *Tenant) idleFor(now time.Time, d time.Duration) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions == 0 && t.dead == nil && !t.recovering && now.Sub(t.lastUsed) >= d
}

// TenantInfo is one tenant's service-level state for health reporting.
type TenantInfo struct {
	Name     string `json:"name"`
	Sessions int    `json:"sessions"`
	Queued   int    `json:"queued"`
	Breaker  string `json:"breaker"`
	// State is "serving", or "recovering" while the supervisor rebuilds
	// the tenant from its journal.
	State string `json:"state,omitempty"`
	// Restarts counts supervised restarts since the last clean recovery.
	Restarts int    `json:"restarts,omitempty"`
	Dead     string `json:"dead,omitempty"`
}

// Info snapshots the tenant's service-level state.
func (t *Tenant) Info() TenantInfo {
	t.mu.Lock()
	defer t.mu.Unlock()
	info := TenantInfo{
		Name:     t.name,
		Sessions: t.sessions,
		Queued:   len(t.queue),
		Breaker:  t.brk.State().String(),
		State:    "serving",
		Restarts: t.restarts,
	}
	if t.recovering {
		info.State = "recovering"
	}
	if t.dead != nil {
		info.Dead = t.dead.Error()
	}
	return info
}
