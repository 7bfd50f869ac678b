package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"liteview/internal/journal"
	"liteview/internal/phys"
	"liteview/internal/telemetry"
)

// Server is the control-plane daemon: it accepts operator connections,
// multiplexes them onto the tenant pool, and survives misbehaving
// sessions and crashing tenants. One Server per process; drive it with
// Serve and stop it with Shutdown. With Config.JournalDir set it is
// also the supervisor: crashed tenants are resurrected from their
// write-ahead journals (call RecoverJournals before Serve to restore a
// previous process's fleet).
type Server struct {
	cfg   Config
	clock func() time.Time
	start time.Time
	met   *metrics

	mu       sync.Mutex
	ln       net.Listener
	serving  bool
	draining bool
	tenants  map[string]*Tenant
	sessions map[*session]struct{}
	janitor  chan struct{} // closed to stop the idle-tenant reaper
	// restarts counts consecutive supervised restarts per tenant; reset
	// on a successful replay.
	restarts map[string]int
	// quarantined holds tenants the supervisor gave up on.
	quarantined map[string]QuarantineInfo
	// journaled marks tenant names whose journal this process owns; a
	// hello for a journaled name whose tenant is dead or missing waits
	// for the supervisor (ErrTenantRecovering) instead of wiping the
	// journal with a fresh Create.
	journaled map[string]bool
	restored  int // tenants resurrected by RecoverJournals

	wg sync.WaitGroup // session goroutines
}

// session is one operator connection's state.
type session struct {
	conn net.Conn
	enc  *json.Encoder
	// writeMu serializes wire writes: the handler goroutine and the
	// session's watch streamer (if any) share the connection.
	writeMu  sync.Mutex
	tenant   *Tenant
	draining atomic.Bool
	// watch is the live telemetry stream riding this session, nil when
	// none. Touched only by the session's handler goroutine.
	watch *sessionWatch
}

// sessionWatch is one live telemetry stream: a subscription on the
// tenant's recorder drained by a streamer goroutine into event frames.
type sessionWatch struct {
	sub  *telemetry.Subscription
	stop chan struct{}
	// ended is closed before the streamer sends watch-end, done once it
	// has exited: a client that watches again the moment it reads
	// watch-end must find this watch over, not busy.
	ended chan struct{}
	done  chan struct{}
	stop1 sync.Once
}

func (w *sessionWatch) halt() { w.stop1.Do(func() { close(w.stop) }) }

// defaultWatchRate caps streamed frames per second when the client's
// WatchSpec doesn't say: high enough for a busy tenant, low enough
// that one firehose watch can't starve the wire.
const defaultWatchRate = 2000

// The service edge retries a command rejected by a transient admission
// check (rate limit, full queue) edgeRetries times before the rejection
// reaches the operator, backing off edgeBackoff and doubling.
const (
	edgeRetries = 3
	edgeBackoff = 25 * time.Millisecond
)

// New builds a server. cfg.NewRunner is mandatory.
func New(cfg Config) (*Server, error) {
	if cfg.NewRunner == nil {
		return nil, errors.New("serve: Config.NewRunner is required")
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Server{
		cfg:         cfg,
		clock:       time.Now,
		start:       time.Now(),
		met:         newMetrics(),
		tenants:     make(map[string]*Tenant),
		sessions:    make(map[*session]struct{}),
		janitor:     make(chan struct{}),
		restarts:    make(map[string]int),
		quarantined: make(map[string]QuarantineInfo),
		journaled:   make(map[string]bool),
	}, nil
}

// Serve accepts connections on ln until Shutdown closes it. It returns
// nil on a graceful drain and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	s.ln = ln
	s.serving = true
	s.mu.Unlock()
	if s.cfg.TenantIdle > 0 {
		go s.runJanitor()
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.isDraining() {
				return nil
			}
			return err
		}
		sess := &session{conn: conn, enc: json.NewEncoder(conn)}
		s.mu.Lock()
		if s.draining {
			s.mu.Unlock()
			s.send(sess, Response{Type: TypeBye, Reason: "draining"})
			conn.Close()
			continue
		}
		s.sessions[sess] = struct{}{}
		s.mu.Unlock()
		s.met.inc("serve.sessions.opened")
		s.met.gaugeAdd("serve.sessions.active", 1)
		s.wg.Add(1)
		go s.handle(sess)
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// send writes one response, reporting whether the peer is still there.
func (s *Server) send(sess *session, resp Response) bool {
	sess.writeMu.Lock()
	err := sess.enc.Encode(resp)
	sess.writeMu.Unlock()
	if err != nil {
		s.met.inc("serve.sessions.write_errors")
		return false
	}
	return true
}

// handle runs one session to completion: read a line, run it, write the
// result. Any exit path reaps the session — the deferred block is the
// single place session resources are released, so a panicking peer
// handler can never leak a connection or a tenant attachment.
func (s *Server) handle(sess *session) {
	defer func() {
		sess.conn.Close()
		if sess.watch != nil {
			// Conn is closed, so a streamer stuck in a write unblocks;
			// waiting on done guarantees the subscription detaches before
			// the session is forgotten.
			sess.watch.halt()
			<-sess.watch.done
		}
		if sess.tenant != nil {
			sess.tenant.detach()
		}
		s.mu.Lock()
		delete(s.sessions, sess)
		s.mu.Unlock()
		s.met.inc("serve.sessions.closed")
		s.met.gaugeAdd("serve.sessions.active", -1)
		s.wg.Done()
	}()
	sc := newLineScanner(sess.conn)
	for {
		if s.isDraining() || sess.draining.Load() {
			s.send(sess, Response{Type: TypeBye, Reason: "draining"})
			return
		}
		if s.cfg.IdleTimeout > 0 {
			if sess.watch != nil {
				// A watching client legitimately goes quiet for the whole
				// stream; drain still wakes the read via SetReadDeadline.
				sess.conn.SetReadDeadline(time.Time{})
			} else {
				sess.conn.SetReadDeadline(s.clock().Add(s.cfg.IdleTimeout))
			}
		}
		if !sc.Scan() {
			if s.isDraining() || sess.draining.Load() {
				s.send(sess, Response{Type: TypeBye, Reason: "draining"})
				return
			}
			var ne net.Error
			if errors.As(sc.Err(), &ne) && ne.Timeout() {
				s.met.inc("serve.sessions.idle_timeouts")
				s.send(sess, Response{Type: TypeBye, Reason: "idle timeout"})
			}
			return // peer hung up (or flooded the line buffer): reap
		}
		var req Request
		if err := json.Unmarshal(sc.Bytes(), &req); err != nil {
			if !s.send(sess, Response{Type: TypeError, Code: CodeBadRequest,
				Error: fmt.Sprintf("serve: bad request: %v", err)}) {
				return
			}
			continue
		}
		if !s.handleRequest(sess, req) {
			return
		}
	}
}

// handleRequest dispatches one request; false ends the session.
func (s *Server) handleRequest(sess *session, req Request) bool {
	switch req.Type {
	case TypeHello:
		if sess.tenant != nil {
			return s.send(sess, Response{Type: TypeError, Code: CodeBadRequest,
				Error: "serve: session already attached to tenant " + sess.tenant.Name()})
		}
		t, err := s.tenantFor(req.Tenant)
		if err != nil {
			code, transient := errCode(err)
			return s.send(sess, Response{Type: TypeError, Code: code, Transient: transient, Error: err.Error()})
		}
		sess.tenant = t
		t.attach()
		return s.send(sess, Response{Type: TypeHelloOK, Tenant: t.Name()})
	case TypeCmd:
		if sess.tenant == nil {
			return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest,
				Error: "serve: say hello (attach to a tenant) before sending commands"})
		}
		if s.isDraining() {
			return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeDraining,
				Error: ErrDraining.Error()})
		}
		started := s.clock()
		out, cwd, err := s.submit(sess.tenant, req.Line)
		s.met.observe("serve.cmd_ms", telemetry.DefaultRTTBucketsMs(),
			float64(s.clock().Sub(started).Microseconds())/1000)
		s.met.inc("serve.commands.total")
		resp := Response{Type: TypeResult, ID: req.ID, Output: out, Cwd: cwd}
		if err != nil {
			resp.Error = err.Error()
			resp.Code, resp.Transient = errCode(err)
			s.met.inc("serve.commands.errors")
			s.met.inc("serve.errors." + resp.Code)
		}
		return s.send(sess, resp)
	case TypeWatch:
		return s.startWatch(sess, req)
	case TypeUnwatch:
		if sess.watch == nil {
			return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest,
				Error: "serve: no watch active on this session"})
		}
		sess.watch.halt()
		<-sess.watch.done // streamer sends watch-end before exiting
		sess.watch = nil
		return true
	case TypeHealthz:
		h := s.Healthz()
		return s.send(sess, Response{Type: TypeHealthz, Health: &h})
	case TypeMetrics:
		return s.send(sess, Response{Type: TypeMetrics, Metrics: s.MetricsSnapshot()})
	case TypeRecovery:
		if req.Clear != "" {
			if err := s.ClearQuarantine(req.Clear); err != nil {
				code, transient := errCode(err)
				if !errors.Is(err, ErrDraining) {
					code = CodeBadRequest
				}
				return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: code,
					Transient: transient, Error: err.Error()})
			}
		}
		st := s.RecoveryStatus()
		return s.send(sess, Response{Type: TypeRecovery, ID: req.ID, Recovery: &st})
	case TypeBye:
		s.send(sess, Response{Type: TypeBye, Reason: "goodbye"})
		return false
	default:
		return s.send(sess, Response{Type: TypeError, Code: CodeBadRequest,
			Error: fmt.Sprintf("serve: unknown request type %q", req.Type)})
	}
}

// startWatch begins streaming telemetry frames to the session over a
// Subscription (see subscribe), drained by runWatch.
func (s *Server) startWatch(sess *session, req Request) bool {
	if sess.tenant == nil {
		return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest,
			Error: "serve: say hello (attach to a tenant) before watching"})
	}
	if sess.watch != nil {
		select {
		case <-sess.watch.ended:
			// The streamer already ended (elapsed/drain) and is at most
			// finishing its watch-end send.
			<-sess.watch.done
		case <-sess.watch.done: // the peer stopped reading mid-stream
		default:
			return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest,
				Error: "serve: session already has a watch; unwatch first"})
		}
		sess.watch = nil
	}
	if s.isDraining() {
		return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeDraining,
			Error: ErrDraining.Error()})
	}
	spec := WatchSpec{}
	if req.Watch != nil {
		spec = *req.Watch
	}
	f, err := spec.filter()
	if err != nil {
		return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest, Error: err.Error()})
	}
	sub, err := s.subscribe(sess.tenant, f, spec.Depth)
	if err != nil {
		code, transient := errCode(err)
		return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: code,
			Transient: transient, Error: err.Error()})
	}
	if sub == nil {
		return s.send(sess, Response{Type: TypeError, ID: req.ID, Code: CodeBadRequest,
			Error: "serve: tenant exposes no telemetry"})
	}
	w := &sessionWatch{
		sub:   sub,
		stop:  make(chan struct{}),
		ended: make(chan struct{}),
		done:  make(chan struct{}),
	}
	if !s.send(sess, Response{Type: TypeWatchOK, ID: req.ID, Tenant: sess.tenant.Name()}) {
		sub.Close()
		return false
	}
	sess.watch = w
	s.met.inc("serve.watch.started")
	go s.runWatch(sess, w, spec, req.ID)
	return true
}

// filter maps the wire spec onto the telemetry filter; a malformed link
// is an error.
func (spec WatchSpec) filter() (telemetry.Filter, error) {
	link, err := telemetry.ParseLink(spec.Link)
	return telemetry.Filter{
		Node:  phys.NodeID(spec.Node),
		Layer: telemetry.Layer(spec.Layer),
		Kind:  spec.Kind,
		Link:  link,
		Span:  spec.Span,
	}, err
}

// subscribe attaches a Subscription to tenant t's telemetry, nil when
// t's runner exposes none. The empty command is a no-op the journal
// skips; it goes through the queue, so once it returns the build has
// published the recorder. Nothing switches recording on: a stream sees
// events as they happen and leaves no history in the tenant.
func (s *Server) subscribe(t *Tenant, f telemetry.Filter, depth int) (*telemetry.Subscription, error) {
	if _, _, err := s.submit(t, ""); err != nil {
		return nil, err
	}
	return t.Recorder().Subscribe(f, depth), nil
}

// runWatch is the wire watch's streamer goroutine. When the wire still
// works at the end, it says watch-end so the client can tell a finished
// stream from a cut one.
func (s *Server) runWatch(sess *session, w *sessionWatch, spec WatchSpec, id uint64) {
	defer close(w.done)
	reason := s.stream(w.sub, spec, w.stop,
		func() bool { return s.isDraining() || sess.draining.Load() },
		func(events []telemetry.Event) bool {
			for i := range events {
				if !s.send(sess, Response{Type: TypeEvent, ID: id,
					Event: telemetry.JSONLine(&events[i]), Dropped: w.sub.Dropped()}) {
					return false
				}
			}
			s.met.add("serve.watch.frames", len(events))
			return true
		})
	if reason != "" {
		close(w.ended)
		s.send(sess, Response{Type: TypeWatchEnd, ID: id, Reason: reason, Dropped: w.sub.Dropped()})
	}
	s.met.inc("serve.watch.ended")
}

// stream is the one loop behind the wire watch and /streamz: drain sub
// on a wall ticker, at most spec.MaxPerSec events a second, handing each
// batch to send. It closes sub and returns why it ended: "unwatch" when
// stop closes, "elapsed" after spec.ForMs, "draining" once draining
// reports true, and "" when send fails.
func (s *Server) stream(sub *telemetry.Subscription, spec WatchSpec, stop <-chan struct{},
	draining func() bool, send func([]telemetry.Event) bool) string {
	defer sub.Close()
	maxPerSec := spec.MaxPerSec
	if maxPerSec <= 0 {
		maxPerSec = defaultWatchRate
	}
	var deadline <-chan time.Time
	if spec.ForMs > 0 {
		timer := time.NewTimer(time.Duration(spec.ForMs) * time.Millisecond)
		defer timer.Stop()
		deadline = timer.C
	}
	const tickEvery = 100 * time.Millisecond
	batch := max(maxPerSec/10, 1)
	tick := time.NewTicker(tickEvery)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return "unwatch"
		case <-deadline:
			return "elapsed"
		case <-tick.C:
			if draining() {
				return "draining"
			}
			if events := sub.Poll(batch); len(events) > 0 && !send(events) {
				return ""
			}
		}
	}
}

// submit runs one command with the service edge's bounded retry loop:
// transient admission rejections (rate limit, full queue) back off and
// try again a few times before the rejection reaches the operator.
// Everything else — including the command's own errors — passes through
// untouched; retrying a command that ran would re-run it on the
// simulation.
func (s *Server) submit(t *Tenant, line string) (string, string, error) {
	backoff := edgeBackoff
	for attempt := 0; ; attempt++ {
		out, cwd, err := t.Submit(line, s.cfg.CmdTimeout)
		if err == nil ||
			(!errors.Is(err, ErrRateLimited) && !errors.Is(err, ErrQueueFull)) ||
			attempt >= edgeRetries || s.isDraining() {
			return out, cwd, err
		}
		s.met.inc("serve.edge.retries")
		time.Sleep(backoff)
		backoff *= 2
	}
}

// tenantNamed returns the named tenant only if it already exists and is
// alive — unlike tenantFor it never creates one. The admin streaming
// endpoints use it so a stray curl can't spin up a simulation.
func (s *Server) tenantNamed(name string) *Tenant {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok && t.Dead() == nil {
		return t
	}
	return nil
}

// tenantFor returns the named live tenant, creating it (and its
// simulation goroutine) on first use. Dead tenants still in the table
// are replaced — a fresh hello after a crash gets a fresh testbed —
// except under journaling, where the supervisor owns resurrection and a
// hello mid-recovery is asked to retry.
func (s *Server) tenantFor(name string) (*Tenant, error) {
	if name == "" {
		return nil, errors.New("serve: hello needs a tenant name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if q, ok := s.quarantined[name]; ok {
		return nil, fmt.Errorf("%w: tenant %q: %s", ErrTenantQuarantined, name, q.Reason)
	}
	if t, ok := s.tenants[name]; ok && t.Dead() == nil {
		return t, nil
	}
	if s.cfg.JournalDir != "" && s.journaled[name] {
		// The tenant is dead or gone but this process owns its journal:
		// the supervisor's replacement is (or is about to be) replaying
		// it. A fresh Create here would wipe the history mid-recovery.
		return nil, fmt.Errorf("%w: tenant %q", ErrTenantRecovering, name)
	}
	if len(s.tenants) >= s.cfg.MaxTenants {
		if t, ok := s.tenants[name]; !ok || t.Dead() == nil {
			return nil, fmt.Errorf("%w (%d)", ErrTooManyTenants, s.cfg.MaxTenants)
		}
	}
	t := s.spawnLocked(name, false, 0, 0)
	s.tenants[name] = t
	if s.cfg.JournalDir != "" {
		s.journaled[name] = true
	}
	s.met.inc("serve.tenants.created")
	s.met.gaugeAdd("serve.tenants.active", 1)
	s.cfg.Logf("serve: tenant %q created", name)
	return t, nil
}

// spawnLocked builds one tenant incarnation. Caller holds s.mu — the
// atomic map swap under one critical section is what keeps a racing
// hello from wiping a journal mid-recovery.
func (s *Server) spawnLocked(name string, recover bool, delay time.Duration, restarts int) *Tenant {
	return newTenant(tenantParams{
		name:        name,
		seed:        s.seedFor(name),
		recover:     recover,
		delay:       delay,
		restarts:    restarts,
		onCrash:     s.crashHook,
		onRecovered: s.recoveredHook,
	}, s.cfg, s.clock)
}

func (s *Server) seedFor(name string) uint64 {
	if s.cfg.SeedFor != nil {
		return s.cfg.SeedFor(name)
	}
	return TenantSeed(0, name)
}

func (s *Server) journalOpts() journal.Options {
	return journal.Options{
		FsyncEvery: s.cfg.JournalFsyncEvery,
		Logf:       s.cfg.Logf,
	}
}

// restartDelay is the supervised-restart backoff: RestartBackoff
// doubling per consecutive attempt, capped at 32x.
func restartDelay(base time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < 32*base; i++ {
		d *= 2
	}
	if d > 32*base {
		d = 32 * base
	}
	return d
}

// crashHook is the tenant loop's death hook. Without journaling it
// reaps the corpse as before. With journaling it is the supervisor:
// swap in a recovering replacement (with backoff) under the same lock
// that hello uses, or quarantine the tenant once the restart budget is
// spent — truncating the journal past a poisonous command so the good
// prefix stays recoverable.
func (s *Server) crashHook(t *Tenant, reason error) {
	name := t.Name()
	crash := t.crashState()
	switch crash.kind {
	case "build", "journal":
		s.met.inc("serve.tenants.build_failures")
	default:
		s.met.inc("serve.tenants.crashed")
	}
	if s.cfg.JournalDir == "" {
		s.mu.Lock()
		if cur, ok := s.tenants[name]; ok && cur == t {
			delete(s.tenants, name)
			s.met.gaugeAdd("serve.tenants.active", -1)
		}
		s.mu.Unlock()
		s.cfg.Logf("serve: tenant %q reaped: %v", name, reason)
		return
	}
	s.mu.Lock()
	if cur, ok := s.tenants[name]; !ok || cur != t {
		s.mu.Unlock()
		return // superseded (janitor or drain already took it)
	}
	if s.draining {
		delete(s.tenants, name)
		s.met.gaugeAdd("serve.tenants.active", -1)
		s.mu.Unlock()
		return
	}
	s.restarts[name]++
	attempts := s.restarts[name]
	if attempts > s.cfg.RestartBudget {
		q := QuarantineInfo{Tenant: name, Restarts: attempts - 1}
		if crash.valid {
			q.Index, q.Line = crash.index, crash.line
			q.Reason = fmt.Sprintf("%v: journal entry %d %q: %v",
				ErrPoisonCommand, crash.index, crash.line, reason)
		} else {
			q.Reason = fmt.Sprintf("restart budget exhausted: %v", reason)
		}
		var truncErr error
		if crash.valid {
			// Amputate the poison command (and everything after it): the
			// journal's good prefix stays replayable for ClearQuarantine.
			// It is cut while the lock is still held, before the quarantine
			// is published: RecoveryStatus, hellos and ClearQuarantine only
			// ever see a quarantined tenant whose journal is already cut.
			truncErr = journal.TruncatePast(s.cfg.JournalDir, name, crash.index, s.journalOpts())
		}
		s.quarantined[name] = q
		delete(s.restarts, name)
		delete(s.tenants, name)
		s.met.gaugeAdd("serve.tenants.active", -1)
		s.mu.Unlock()
		s.met.inc("serve.recovery.quarantined")
		if truncErr != nil {
			s.cfg.Logf("serve: tenant %q: truncating journal past poison entry %d: %v",
				name, crash.index, truncErr)
		}
		s.cfg.Logf("serve: tenant %q quarantined after %d restart(s): %s", name, attempts-1, q.Reason)
		return
	}
	delay := restartDelay(s.cfg.RestartBackoff, attempts)
	s.tenants[name] = s.spawnLocked(name, true, delay, attempts)
	s.mu.Unlock()
	s.met.inc("serve.recovery.restarts")
	s.cfg.Logf("serve: tenant %q crashed (%v); supervised restart %d/%d after %v",
		name, reason, attempts, s.cfg.RestartBudget, delay)
}

// recoveredHook fires after a recovering tenant finishes its replay:
// reset the restart budget and record the recovery.
func (s *Server) recoveredHook(t *Tenant, replayed int, dur time.Duration) {
	s.mu.Lock()
	delete(s.restarts, t.Name())
	s.mu.Unlock()
	s.met.inc("serve.recovery.recovered")
	s.met.add("serve.recovery.replayed_commands", replayed)
	s.met.observe("serve.recovery.replay_ms", telemetry.DefaultReplayBucketsMs(),
		float64(dur.Microseconds())/1000)
	s.cfg.Logf("serve: tenant %q recovered: replayed %d command(s) in %v", t.Name(), replayed, dur)
}

// RecoverJournals resurrects every tenant with a journal under
// Config.JournalDir (lvserved -recover). Call it before Serve: each
// tenant rebuilds from its journaled seed and replays its history on
// its own goroutine; sessions arriving mid-replay simply queue behind
// it. Returns how many tenants were restored.
func (s *Server) RecoverJournals() (int, error) {
	if s.cfg.JournalDir == "" {
		return 0, errors.New("serve: RecoverJournals needs Config.JournalDir")
	}
	names, err := journal.List(s.cfg.JournalDir)
	if err != nil {
		return 0, err
	}
	n := 0
	s.mu.Lock()
	for _, name := range names {
		if _, ok := s.tenants[name]; ok {
			continue
		}
		s.tenants[name] = s.spawnLocked(name, true, 0, 0)
		s.journaled[name] = true
		n++
	}
	s.restored += n
	s.mu.Unlock()
	if n > 0 {
		s.met.add("serve.recovery.restored", n)
		s.met.gaugeAdd("serve.tenants.active", float64(n))
		s.cfg.Logf("serve: restoring %d tenant(s) from journals in %s", n, s.cfg.JournalDir)
	}
	return n, nil
}

// ClearQuarantine lifts a tenant's quarantine and resurrects it from
// what is left of its journal (the poisonous entry was truncated away
// when the quarantine was imposed).
func (s *Server) ClearQuarantine(name string) error {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return ErrDraining
	}
	if _, ok := s.quarantined[name]; !ok {
		s.mu.Unlock()
		return fmt.Errorf("serve: tenant %q is not quarantined", name)
	}
	delete(s.quarantined, name)
	delete(s.restarts, name)
	s.tenants[name] = s.spawnLocked(name, true, 0, 0)
	s.journaled[name] = true
	s.mu.Unlock()
	s.met.gaugeAdd("serve.tenants.active", 1)
	s.cfg.Logf("serve: tenant %q quarantine cleared; recovering from journal", name)
	return nil
}

// RecoveryStatus reports the supervisor's view: whether journaling is
// on, how many tenants the last RecoverJournals restored, which are
// mid-replay, and which are quarantined.
func (s *Server) RecoveryStatus() RecoveryStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := RecoveryStatus{Enabled: s.cfg.JournalDir != "", Restored: s.restored}
	for name, t := range s.tenants {
		if t.Recovering() {
			st.Recovering = append(st.Recovering, name)
		}
	}
	sort.Strings(st.Recovering)
	for _, q := range s.quarantined {
		st.Quarantined = append(st.Quarantined, q)
	}
	sort.Slice(st.Quarantined, func(i, j int) bool {
		return st.Quarantined[i].Tenant < st.Quarantined[j].Tenant
	})
	return st
}

// runJanitor reaps tenants that have had no session and no command for
// cfg.TenantIdle.
func (s *Server) runJanitor() {
	interval := s.cfg.TenantIdle / 4
	if interval < time.Second {
		interval = time.Second
	}
	if interval > 30*time.Second {
		interval = 30 * time.Second
	}
	tick := time.NewTicker(interval)
	defer tick.Stop()
	for {
		select {
		case <-s.janitor:
			return
		case <-tick.C:
			now := s.clock()
			s.mu.Lock()
			var idle []*Tenant
			for name, t := range s.tenants {
				if t.idleFor(now, s.cfg.TenantIdle) {
					delete(s.tenants, name)
					idle = append(idle, t)
				}
			}
			s.mu.Unlock()
			for _, t := range idle {
				t.stop()
				<-t.Done()
				if s.cfg.JournalDir != "" {
					// An idle-reaped tenant deliberately starts fresh on its
					// next hello; its journal would resurrect stale state.
					if err := journal.Drop(s.cfg.JournalDir, t.Name()); err != nil {
						s.cfg.Logf("serve: tenant %q: dropping journal: %v", t.Name(), err)
					}
					s.mu.Lock()
					delete(s.journaled, t.Name())
					delete(s.restarts, t.Name())
					s.mu.Unlock()
				}
				s.met.inc("serve.tenants.reaped_idle")
				s.met.gaugeAdd("serve.tenants.active", -1)
				s.cfg.Logf("serve: tenant %q reaped (idle)", t.Name())
			}
		}
	}
}

// Shutdown drains the server: stop accepting, wake blocked readers so
// every session finishes (or abandons) its in-flight command and gets a
// goodbye, then stop every tenant simulation. It returns nil on a clean
// drain within ctx and ctx's error if the deadline forced it — in that
// case remaining connections are closed hard.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyDraining := s.draining
	s.draining = true
	ln := s.ln
	sessions := make([]*session, 0, len(s.sessions))
	for sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	if alreadyDraining {
		return errors.New("serve: shutdown already in progress")
	}
	s.met.inc("serve.drain.started")
	s.cfg.Logf("serve: draining (%d session(s))", len(sessions))
	if ln != nil {
		ln.Close()
	}
	close(s.janitor)
	// Wake sessions parked in a read so they notice the drain; sessions
	// inside a command finish it first — the response still goes out.
	for _, sess := range sessions {
		sess.draining.Store(true)
		sess.conn.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() { s.wg.Wait(); close(done) }()
	clean := true
	select {
	case <-done:
	case <-ctx.Done():
		clean = false
		s.mu.Lock()
		for sess := range s.sessions {
			sess.conn.Close()
		}
		s.mu.Unlock()
	}
	// Stop the tenant pool. Each loop exits after its in-flight command.
	s.mu.Lock()
	tenants := make([]*Tenant, 0, len(s.tenants))
	for _, t := range s.tenants {
		tenants = append(tenants, t)
	}
	s.tenants = make(map[string]*Tenant)
	s.mu.Unlock()
	for _, t := range tenants {
		t.stop()
	}
	for _, t := range tenants {
		select {
		case <-t.Done():
			s.met.gaugeAdd("serve.tenants.active", -1)
		case <-ctx.Done():
			clean = false
		}
	}
	if !clean {
		s.met.inc("serve.drain.forced")
		s.cfg.Logf("serve: drain deadline exceeded, connections closed hard")
		return ctx.Err()
	}
	// Every tenant ended at once, leaving their last garbage behind
	// with the heap near its goal. Collect it here, so what the process
	// allocates after the drain reuses that memory instead of growing
	// the heap past it.
	runtime.GC()
	s.met.inc("serve.drain.clean")
	s.cfg.Logf("serve: drain complete")
	return nil
}

// Healthz reports liveness and readiness: Live while the process
// answers, Ready only while accepting new work.
func (s *Server) Healthz() Health {
	s.mu.Lock()
	defer s.mu.Unlock()
	h := Health{
		Live:     true,
		Ready:    s.serving && !s.draining,
		Draining: s.draining,
		Sessions: len(s.sessions),
		UptimeMs: s.clock().Sub(s.start).Milliseconds(),
	}
	for _, t := range s.tenants {
		h.Tenants = append(h.Tenants, t.Info())
	}
	sort.Slice(h.Tenants, func(i, j int) bool { return h.Tenants[i].Name < h.Tenants[j].Name })
	for _, q := range s.quarantined {
		h.Quarantined = append(h.Quarantined, q)
	}
	sort.Slice(h.Quarantined, func(i, j int) bool { return h.Quarantined[i].Tenant < h.Quarantined[j].Tenant })
	return h
}

// MetricsSnapshot flattens the service metrics registry (see
// internal/telemetry) to named scalars.
func (s *Server) MetricsSnapshot() map[string]float64 {
	return s.met.snapshot()
}

// metrics wraps a telemetry.Registry with the lock the concurrent
// service needs (the registry itself is single-writer by design — the
// simulators own theirs; the service shares one across sessions).
type metrics struct {
	mu  sync.Mutex
	reg *telemetry.Registry
}

func newMetrics() *metrics { return &metrics{reg: telemetry.NewRegistry()} }

func (m *metrics) inc(name string) {
	m.mu.Lock()
	m.reg.Counter(name).Inc()
	m.mu.Unlock()
}

func (m *metrics) add(name string, n int) {
	m.mu.Lock()
	m.reg.Counter(name).Add(uint64(n))
	m.mu.Unlock()
}

func (m *metrics) gaugeAdd(name string, d float64) {
	m.mu.Lock()
	m.reg.Gauge(name).Add(d)
	m.mu.Unlock()
}

func (m *metrics) observe(name string, bounds []float64, v float64) {
	m.mu.Lock()
	m.reg.Histogram(name, bounds).Observe(v)
	m.mu.Unlock()
}

func (m *metrics) snapshot() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.Snapshot()
}

func (m *metrics) writePrometheus(w io.Writer) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reg.WritePrometheus(w)
}
