package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"liteview/internal/phys"
	"liteview/internal/sim"
	"liteview/internal/telemetry"
)

// Per-node circuit breaker around the command interpreter. A node that
// repeatedly fails to acknowledge command transfers is almost certainly
// crashed, out of range, or jammed; burning a full response window (and
// a full retransmission ladder of airtime) on every further command
// punishes the user and the channel alike. After BreakerThreshold
// consecutive command failures the breaker opens and commands to that
// node fail immediately with ErrBreakerOpen; once BreakerCooldown of
// virtual time has passed, the next command is admitted as a half-open
// probe — success closes the breaker, another failure re-opens it for a
// fresh cooldown.
//
// The state machine itself is the reusable Breaker type: clock-agnostic
// (the caller supplies Now, virtual or wall), so the same three-state
// lifecycle guards both the workstation's per-node command path and the
// service layer's per-tenant admission control (internal/serve).

// BreakerState is the classic three-state circuit-breaker lifecycle.
type BreakerState int

const (
	// BreakerClosed: commands flow normally.
	BreakerClosed BreakerState = iota
	// BreakerOpen: commands fail fast with ErrBreakerOpen.
	BreakerOpen
	// BreakerHalfOpen: one probe command is in flight; its outcome
	// decides between closed and another open period.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Breaker defaults.
const (
	// DefaultBreakerThreshold is how many consecutive command failures
	// open the breaker.
	DefaultBreakerThreshold = 3
	// DefaultBreakerCooldown is how long an open breaker rejects
	// commands before admitting a half-open probe.
	DefaultBreakerCooldown = 2 * time.Second
)

// ErrBreakerOpen reports a command rejected without transmission
// because the circuit breaker guarding its target is open.
var ErrBreakerOpen = errors.New("core: circuit breaker open (node repeatedly unreachable)")

// Breaker is one three-state circuit breaker. Threshold consecutive
// recorded failures open it; after Cooldown (measured on the caller's
// clock) the next Allow admits a half-open probe whose Record outcome
// decides between closed and a fresh open period. Threshold <= 0
// disables the breaker entirely. The zero value (with a Now clock) is a
// closed breaker. Not safe for concurrent use; callers that share one
// across goroutines must lock around Allow/Record.
type Breaker struct {
	// Threshold is the consecutive-failure count that opens the breaker.
	Threshold int
	// Cooldown is how long an open breaker rejects before probing.
	Cooldown sim.Time
	// Now supplies the clock (virtual or wall) the cooldown is measured
	// on. A nil Now pins the clock at zero, which still opens and closes
	// correctly but never times out an open period — always set it.
	Now func() sim.Time

	state    BreakerState
	fails    int // consecutive failures
	openedAt sim.Time
}

func (b *Breaker) now() sim.Time {
	if b.Now == nil {
		return 0
	}
	return b.Now()
}

// State returns the current lifecycle state.
func (b *Breaker) State() BreakerState { return b.state }

// Fails returns the current consecutive-failure count.
func (b *Breaker) Fails() int { return b.fails }

// RetryIn returns how much time remains before an open breaker admits
// its half-open probe (0 unless the state is BreakerOpen).
func (b *Breaker) RetryIn() sim.Time {
	if b.state != BreakerOpen {
		return 0
	}
	if wait := b.openedAt + b.Cooldown - b.now(); wait > 0 {
		return wait
	}
	return 0
}

// Allow gates one command. It returns an ErrBreakerOpen-wrapping error
// while the breaker is open and inside its cooldown; once the cooldown
// has passed the breaker moves to half-open and the command proceeds as
// the probe.
func (b *Breaker) Allow() error {
	if b.Threshold <= 0 || b.state != BreakerOpen {
		return nil
	}
	if wait := b.openedAt + b.Cooldown - b.now(); wait > 0 {
		return fmt.Errorf("%w: retry in %v", ErrBreakerOpen, time.Duration(wait))
	}
	b.state = BreakerHalfOpen
	return nil
}

// Record folds one command outcome into the breaker: success closes it
// and clears the failure streak; failure extends the streak and opens
// the breaker at the threshold (immediately when half-open — a failed
// probe buys a fresh cooldown).
func (b *Breaker) Record(ok bool) {
	if b.Threshold <= 0 {
		return
	}
	if ok {
		b.state = BreakerClosed
		b.fails = 0
		return
	}
	b.fails++
	if b.state == BreakerHalfOpen || b.fails >= b.Threshold {
		b.state = BreakerOpen
		b.openedAt = b.now()
	}
}

// Reset returns the breaker to closed with no failure history.
func (b *Breaker) Reset() {
	b.state = BreakerClosed
	b.fails = 0
}

// BreakerInfo is one node's breaker state for display (shell `health`).
type BreakerInfo struct {
	Node  phys.NodeID
	State BreakerState
	// Fails is the current consecutive-failure count.
	Fails int
	// RetryIn is how much virtual time remains before an open breaker
	// admits its half-open probe (0 unless State is BreakerOpen).
	RetryIn sim.Time
}

// Breakers reports every node with a non-closed breaker or a non-zero
// failure streak, sorted by node ID.
func (w *Workstation) Breakers() []BreakerInfo {
	out := make([]BreakerInfo, 0, len(w.breakers))
	for id, b := range w.breakers {
		if b.State() == BreakerClosed && b.Fails() == 0 {
			continue
		}
		out = append(out, breakerInfo(id, b))
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

// BreakerFor reports one node's breaker state.
func (w *Workstation) BreakerFor(node phys.NodeID) BreakerInfo {
	b, ok := w.breakers[node]
	if !ok {
		return BreakerInfo{Node: node, State: BreakerClosed}
	}
	return breakerInfo(node, b)
}

func breakerInfo(node phys.NodeID, b *Breaker) BreakerInfo {
	return BreakerInfo{Node: node, State: b.State(), Fails: b.Fails(), RetryIn: b.RetryIn()}
}

// nodeBreaker returns node's breaker, creating it on first use with the
// default tuning and the workstation's virtual clock.
func (w *Workstation) nodeBreaker(node phys.NodeID) *Breaker {
	b, ok := w.breakers[node]
	if !ok {
		b = &Breaker{Threshold: DefaultBreakerThreshold, Cooldown: DefaultBreakerCooldown, Now: w.eng.Now}
		w.breakers[node] = b
	}
	return b
}

// breakerAllow gates one command (see Breaker.Allow), tagging the
// rejection with the node it protects.
func (w *Workstation) breakerAllow(node phys.NodeID) error {
	b, ok := w.breakers[node]
	if !ok {
		return nil
	}
	if err := b.Allow(); err != nil {
		return fmt.Errorf("node %d: %w", node, err)
	}
	return nil
}

// breakerRecord folds one command outcome into the node's breaker.
// Healthy nodes carry no entry at all — success drops the breaker from
// the map so the table only ever holds trouble. State transitions are
// published to telemetry so a live fleet view can mark nodes whose
// management link the interpreter has given up on.
func (w *Workstation) breakerRecord(node phys.NodeID, ok bool) {
	if ok {
		if b, exists := w.breakers[node]; exists {
			if b.State() != BreakerClosed {
				w.tel.Emit(node, telemetry.LayerController, "breaker-close")
			}
			delete(w.breakers, node)
		}
		return
	}
	b := w.nodeBreaker(node)
	before := b.State()
	b.Record(false)
	if before != BreakerOpen && b.State() == BreakerOpen {
		w.tel.Emit(node, telemetry.LayerController, "breaker-open",
			telemetry.Int("fails", b.Fails()))
	}
}
