package core

import (
	"errors"
	"testing"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

// breakerBench builds a Workstation with just enough wiring for the
// breaker state machine: an engine for the virtual clock and the breaker
// table. No radio is needed — the breaker sits entirely in front of the
// transmit path.
func breakerBench() *Workstation {
	return &Workstation{
		eng:      sim.NewEngine(1),
		breakers: make(map[phys.NodeID]*Breaker),
	}
}

func advance(w *Workstation, d sim.Time) {
	w.eng.Schedule(d, func() {})
	w.eng.Run()
}

func TestBreakerLifecycle(t *testing.T) {
	w := breakerBench()
	// Closed: everything flows; failures below the threshold keep it so.
	for i := 0; i < DefaultBreakerThreshold-1; i++ {
		if err := w.breakerAllow(7); err != nil {
			t.Fatalf("closed breaker rejected command: %v", err)
		}
		w.breakerRecord(7, false)
	}
	if st := w.BreakerFor(7); st.State != BreakerClosed || st.Fails != DefaultBreakerThreshold-1 {
		t.Fatalf("after %d failures: %+v", DefaultBreakerThreshold-1, st)
	}
	// The threshold-th consecutive failure opens it.
	w.breakerRecord(7, false)
	if st := w.BreakerFor(7); st.State != BreakerOpen {
		t.Fatalf("after threshold: %+v", st)
	}
	if err := w.breakerAllow(7); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("open breaker admitted command: %v", err)
	}
	// Other nodes are unaffected.
	if err := w.breakerAllow(8); err != nil {
		t.Fatalf("breaker bled across nodes: %v", err)
	}
	// Cooldown elapsed: one half-open probe is admitted.
	advance(w, DefaultBreakerCooldown)
	if err := w.breakerAllow(7); err != nil {
		t.Fatalf("half-open probe rejected: %v", err)
	}
	if st := w.BreakerFor(7); st.State != BreakerHalfOpen {
		t.Fatalf("after probe admission: %+v", st)
	}
	// Probe failure re-opens immediately, for a fresh cooldown.
	w.breakerRecord(7, false)
	if st := w.BreakerFor(7); st.State != BreakerOpen || st.RetryIn == 0 {
		t.Fatalf("after failed probe: %+v", st)
	}
	// Next probe succeeds: the breaker closes and the entry is gone.
	advance(w, DefaultBreakerCooldown)
	if err := w.breakerAllow(7); err != nil {
		t.Fatalf("second probe rejected: %v", err)
	}
	w.breakerRecord(7, true)
	if st := w.BreakerFor(7); st.State != BreakerClosed || st.Fails != 0 {
		t.Fatalf("after successful probe: %+v", st)
	}
	if got := w.Breakers(); len(got) != 0 {
		t.Fatalf("healthy workstation lists breakers: %+v", got)
	}
}

func TestBreakerListSorted(t *testing.T) {
	w := breakerBench()
	for _, id := range []phys.NodeID{9, 4} {
		w.breakerRecord(id, false)
		w.breakerRecord(id, false)
	}
	got := w.Breakers()
	if len(got) != 2 || got[0].Node != 4 || got[1].Node != 9 {
		t.Fatalf("Breakers = %+v, want nodes 4,9 in order", got)
	}
}
