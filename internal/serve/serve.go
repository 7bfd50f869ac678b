// Package serve turns the one-shot LiteView workstation shell into a
// long-lived multi-tenant control-plane service. A daemon (cmd/lvserved)
// owns a pool of concurrent simulated testbeds — one goroutine-confined
// simulation per tenant, so every tenant keeps the repository's
// byte-identical determinism contract (DESIGN §10) — and exposes the
// existing shell command set (ping, traceroute, health, stats, fault,
// nbr, cd/ls, ...) over a newline-delimited JSON wire protocol to many
// concurrent operator sessions (cmd/lvctl).
//
// The robustness layer is the point of the package:
//
//   - per-session lifecycle with idle timeouts and bounded per-tenant
//     command queues (ErrQueueFull instead of unbounded memory);
//   - per-tenant admission control: internal/core's three-state circuit
//     breaker (wall-clocked) plus a token-bucket rate limiter;
//   - per-command wall-clock deadlines with typed errors, and bounded
//     retry/backoff at the service edge for transient admission
//     rejections;
//   - panic isolation: a crashing tenant simulation is reaped and
//     reported (ErrTenantCrashed) without taking down the daemon;
//   - crash recovery: with a journal directory configured, every
//     accepted command is written ahead of execution (internal/journal)
//     and a supervisor resurrects crashed tenants — and, after a daemon
//     restart, whole fleets — by rebuilding the simulation from the
//     recorded seed and replaying the journal; deterministically
//     poisonous commands are quarantined after a restart budget instead
//     of crash-looping (ErrPoisonCommand, ErrTenantQuarantined);
//   - graceful drain on SIGTERM: stop accepting, finish or cancel
//     in-flight commands, say goodbye to every session, stop every
//     tenant, flush service metrics;
//   - /healthz-style liveness/readiness and service metrics published
//     through internal/telemetry.
package serve

import (
	"errors"
	"time"
)

// Typed service errors. Every admission or lifecycle failure the
// service edge can produce is one of these, so clients (and the wire
// layer's error codes) can distinguish retryable congestion from
// structural failure with errors.Is.
var (
	// ErrQueueFull reports a command rejected because the tenant's
	// bounded command queue is at capacity. Transient: back off and retry.
	ErrQueueFull = errors.New("serve: tenant command queue full")
	// ErrRateLimited reports a command rejected by the tenant's token
	// bucket. Transient: back off and retry.
	ErrRateLimited = errors.New("serve: tenant rate limit exceeded")
	// ErrDeadline reports a command that did not complete within the
	// per-command wall-clock deadline. The command may still finish on
	// the tenant simulation; its output is discarded.
	ErrDeadline = errors.New("serve: command deadline exceeded")
	// ErrTenantCrashed reports a tenant simulation that panicked while
	// executing a command. The tenant is reaped; the daemon keeps serving.
	ErrTenantCrashed = errors.New("serve: tenant simulation crashed")
	// ErrTenantDead reports a command for a tenant that has been reaped
	// (crash, idle reap, or drain). A fresh hello re-creates it.
	ErrTenantDead = errors.New("serve: tenant is dead")
	// ErrDraining reports work refused because the daemon is shutting
	// down gracefully.
	ErrDraining = errors.New("serve: server is draining")
	// ErrTooManyTenants reports a hello refused by the tenant cap.
	ErrTooManyTenants = errors.New("serve: tenant limit reached")
	// ErrTenantRecovering reports a hello for a tenant the supervisor is
	// currently resurrecting from its journal. Transient: retry shortly.
	ErrTenantRecovering = errors.New("serve: tenant is recovering")
	// ErrPoisonCommand reports a journaled command that crashes the
	// simulation deterministically on every replay. The quarantine
	// reason names the offending journal entry.
	ErrPoisonCommand = errors.New("serve: poison command")
	// ErrTenantQuarantined reports a hello for a tenant the supervisor
	// gave up on after exhausting its restart budget. Clear it with the
	// recovery wire command (lvctl -clear) or a daemon restart.
	ErrTenantQuarantined = errors.New("serve: tenant quarantined")
)

// Config tunes the service. The zero value is completed by
// (*Config).withDefaults; only NewRunner is mandatory.
type Config struct {
	// NewRunner builds the command interpreter for a named tenant from
	// the given seed. It is invoked on the tenant's own goroutine, which
	// stays the simulation's only goroutine for the tenant's whole life —
	// determinism per tenant is preserved by confinement, not by locking.
	// The seed, not the name, must be the only source of simulation
	// state: recovery rebuilds the tenant from (seed, journal) alone.
	NewRunner func(tenant string, seed uint64) (Runner, error)

	// SeedFor derives a tenant's simulation seed from its name
	// (nil = TenantSeed(0, name)). It must be a pure function: recovery
	// calls it again after a restart and expects the same answer.
	SeedFor func(tenant string) uint64

	// MaxTenants caps the number of live tenants (0 = 64).
	MaxTenants int
	// QueueDepth bounds each tenant's command queue (0 = 16).
	QueueDepth int
	// CmdTimeout is the per-command wall-clock deadline (0 = 30s).
	CmdTimeout time.Duration
	// IdleTimeout closes operator sessions with no traffic (0 = 5m).
	IdleTimeout time.Duration
	// TenantIdle reaps tenants with no attached session and no command
	// for this long (0 = 15m; negative disables reaping).
	TenantIdle time.Duration

	// RatePerSec refills each tenant's admission token bucket
	// (0 = 50/s; negative disables rate limiting).
	RatePerSec float64
	// Burst is the bucket capacity (0 = 2*RatePerSec, min 8).
	Burst float64

	// BreakerThreshold consecutive service failures (deadlines, crashes)
	// open a tenant's admission breaker (0 = core.DefaultBreakerThreshold;
	// negative disables it).
	BreakerThreshold int
	// BreakerCooldown is the open period before a half-open probe
	// (0 = core.DefaultBreakerCooldown).
	BreakerCooldown time.Duration

	// JournalDir enables crash recovery: each tenant gets a write-ahead
	// command journal under this directory, and crashed tenants are
	// resurrected by replay instead of reaped (empty disables — crashes
	// reap the tenant as before).
	JournalDir string
	// JournalFsyncEvery batches journal fsync: sync after this many
	// appends (0 = 8; 1 = sync every append). Appends always reach the
	// OS before the command runs regardless.
	JournalFsyncEvery int
	// RestartBudget is how many times the supervisor restarts a crashing
	// tenant before quarantining it (0 = 3).
	RestartBudget int
	// RestartBackoff is the delay before the first supervised restart,
	// doubling per consecutive attempt, capped at 32x (0 = 100ms).
	RestartBackoff time.Duration

	// Logf receives one line per service-level event (session opened,
	// tenant crashed, drain progress). Nil discards.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxTenants == 0 {
		c.MaxTenants = 64
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 16
	}
	if c.CmdTimeout == 0 {
		c.CmdTimeout = 30 * time.Second
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = 5 * time.Minute
	}
	if c.TenantIdle == 0 {
		c.TenantIdle = 15 * time.Minute
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 50
	}
	if c.Burst == 0 {
		c.Burst = 2 * c.RatePerSec
		if c.Burst < 8 {
			c.Burst = 8
		}
	}
	if c.RestartBudget == 0 {
		c.RestartBudget = 3
	}
	if c.RestartBackoff == 0 {
		c.RestartBackoff = 100 * time.Millisecond
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// validate rejects configurations that cannot serve: a daemon started
// with a zero-capacity queue or a negative deadline would wedge or spin
// instead of failing fast at the flag edge.
func (c Config) validate() error {
	checks := []struct {
		bad  bool
		what string
	}{
		{c.MaxTenants < 0, "MaxTenants must not be negative"},
		{c.QueueDepth < 0, "QueueDepth must not be negative"},
		{c.CmdTimeout < 0, "CmdTimeout must not be negative"},
		{c.IdleTimeout < 0, "IdleTimeout must not be negative"},
		{c.JournalFsyncEvery < 0, "JournalFsyncEvery must not be negative"},
		{c.RestartBudget < 0, "RestartBudget must not be negative"},
		{c.RestartBackoff < 0, "RestartBackoff must not be negative"},
	}
	for _, ck := range checks {
		if ck.bad {
			return errors.New("serve: Config." + ck.what)
		}
	}
	return nil
}

// TenantSeed derives a tenant's simulation seed from a base seed and
// the tenant name: deterministic, so the same tenant name always
// rebuilds the identical testbed — the property journal replay recovery
// stands on. It is the default Config.SeedFor (with base 0) and the
// derivation cmd/lvserved uses.
func TenantSeed(base uint64, tenant string) uint64 {
	// FNV-1a, inlined to keep this file dependency-free.
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(tenant); i++ {
		h ^= uint64(tenant[i])
		h *= prime64
	}
	return base ^ h
}
