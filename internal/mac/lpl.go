package mac

// Low-power listening (LPL), in the BoX-MAC-2 style of TinyOS's CC2420
// stack: the receiver keeps its radio off for most of each sleep
// interval, waking briefly to catch traffic; a sender retransmits its
// frame back-to-back across a whole sleep interval, so every neighbor's
// wake window overlaps at least one copy. Unicast stops early when the
// auto-ack arrives; broadcast always pays the full interval.
//
// LPL trades latency (up to one sleep interval per hop) and sender
// energy for a receiver duty cycle of a few percent — the lever that
// turns the ~5-day always-on lifetime of ablation D6 into months.

import (
	"time"

	"liteview/internal/radio"
	"liteview/internal/sim"
)

// LPL duty-cycle parameters.
const (
	// SleepInterval is the period of the wake-sleep cycle.
	SleepInterval = 100 * time.Millisecond
	// WakeWindow is how long the radio listens per cycle.
	WakeWindow = 6 * time.Millisecond
	// Linger is how long a node stays awake after receiving a frame
	// (follow-up traffic is likely).
	Linger = 40 * time.Millisecond
)

// lplRepeatWindow is how long a frame's LPL repeats continue: one sleep
// interval plus margin guarantees every peer a wake window inside it.
const lplRepeatWindow = SleepInterval + 2*WakeWindow

// lplInit primes the duty cycle with a random phase so co-located nodes
// do not wake in lockstep.
func (m *MAC) lplInit() {
	if !m.lplSleeps() {
		return
	}
	m.eng.After(m.rng.Jitter(SleepInterval), m.lplSleepCb)
}

// lplSleeps reports whether the MAC duty-cycles its own radio.
func (m *MAC) lplSleeps() bool { return m.cfg.LPL && !m.cfg.Listening }

// lplBusy reports whether the MAC has reasons to keep the radio awake.
func (m *MAC) lplBusy() bool {
	return m.sending || m.qLen > 0 || m.ackArmed ||
		m.eng.Now() < m.lingerUntil || m.rad.State() == radio.TX
}

// lplJump is a sleep check moved past the linger to the first tick of
// its WakeWindow grid that can succeed. queued means its event is still
// in the engine; live that Reset has not put it back on its grid since.
// A MAC keeps its jumps for reuse, so jumping does not allocate.
type lplJump struct {
	due          sim.Time
	queued, live bool
}

// lplMaybeSleep starts a sleep period if nothing needs the radio; it
// re-checks one WakeWindow later otherwise. A node inside its linger is
// busy at every tick before lingerUntil, and lingerUntil only grows
// until Reset, so such a check jumps straight to the first tick at or
// past it: the node sleeps at the same instant, without the checks in
// between.
func (m *MAC) lplMaybeSleep() {
	if !m.lplSleeps() || m.rad.State() == radio.Off {
		return
	}
	if now := m.eng.Now(); now < m.lingerUntil {
		if k := (m.lingerUntil - now + WakeWindow - 1) / WakeWindow; k > 1 {
			m.lplJumpTo(now + k*WakeWindow)
			return
		}
	}
	if m.lplBusy() {
		m.eng.After(WakeWindow, m.lplSleepCb)
		return
	}
	m.rad.SetState(radio.Off)
	m.lplSleeping = true
	m.eng.After(SleepInterval-WakeWindow, m.lplWakeCb)
}

// lplJumpTo schedules a jumped sleep check at due.
func (m *MAC) lplJumpTo(due sim.Time) {
	var j *lplJump
	for _, f := range m.lplJumps {
		if !f.queued {
			j = f
			break
		}
	}
	if j == nil {
		j = &lplJump{}
		m.lplJumps = append(m.lplJumps, j)
	}
	j.due, j.queued, j.live = due, true, true
	m.eng.AfterArg(due-m.eng.Now(), m.lplJumpCb, j)
}

// lplJumped runs a jumped sleep check unless Reset has put it back on
// its grid meanwhile.
func (m *MAC) lplJumped(a any) {
	j := a.(*lplJump)
	j.queued = false
	if j.live {
		j.live = false
		m.lplMaybeSleep()
	}
}

// lplResetJumps puts every live jump back on the first tick of its
// grid after now. Reset clears the linger the jump relied on, so the
// skipped ticks can succeed again: a node crashed and rebooted before
// that tick resumes the chain of checks it had, and one still dead
// ends it there.
func (m *MAC) lplResetJumps() {
	now := m.eng.Now()
	for _, j := range m.lplJumps {
		if j.live {
			j.live = false
			next := j.due - (j.due-now-1)/WakeWindow*WakeWindow
			m.eng.After(next-now, m.lplSleepCb)
		}
	}
}

// lplWake opens the listen window.
func (m *MAC) lplWake() {
	if !m.cfg.LPL || !m.lplSleeping {
		return
	}
	m.lplSleeping = false
	m.rad.SetState(radio.RX)
	m.kick() // traffic may have queued while asleep
	m.eng.After(WakeWindow, m.lplSleepCb)
}

// lplTouch extends the awake period after activity.
func (m *MAC) lplTouch() {
	if !m.cfg.LPL {
		return
	}
	until := m.eng.Now() + Linger
	if until > m.lingerUntil {
		m.lingerUntil = until
	}
}

// lplWakeForSend brings a sleeping radio up to transmit.
func (m *MAC) lplWakeForSend() {
	if m.cfg.LPL && m.rad.State() == radio.Off {
		m.lplSleeping = false
		m.rad.SetState(radio.RX)
		m.eng.After(WakeWindow, m.lplSleepCb)
	}
}

// lplShouldRetry reports whether an unacked LPL frame should repeat:
// the budget is time-based (small frames cycle faster than large ones,
// so a fixed count would underestimate the span).
func (m *MAC) lplShouldRetry(head *outgoing) bool {
	if head.firstTx == 0 {
		return true
	}
	return m.eng.Now()-head.firstTx < lplRepeatWindow
}

// lplBroadcastDone reports whether a broadcast frame has been repeated
// long enough to cover every neighbor's wake window.
func (m *MAC) lplBroadcastDone(firstTx sim.Time) bool {
	return m.eng.Now()-firstTx >= lplRepeatWindow
}
