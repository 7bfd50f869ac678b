package core

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"liteview/internal/phys"
	"liteview/internal/sim"
)

// breakerBench builds a Workstation with just enough wiring for the
// breaker state machine: an engine for the virtual clock and the breaker
// fields themselves. No radio is needed — the breaker sits entirely in
// front of the transmit path.
func breakerBench(threshold int, cooldown sim.Time) *Workstation {
	return &Workstation{
		eng:              sim.NewEngine(1),
		breakers:         make(map[phys.NodeID]*Breaker),
		breakerThreshold: threshold,
		breakerCooldown:  cooldown,
	}
}

func advance(w *Workstation, d sim.Time) {
	w.eng.Schedule(d, func() {})
	w.eng.Run()
}

func TestBreakerLifecycle(t *testing.T) {
	w := breakerBench(3, sim.Time(2*time.Second))
	// Closed: everything flows; failures below the threshold keep it so.
	for i := 0; i < 2; i++ {
		if err := w.breakerAllow(7); err != nil {
			t.Fatalf("closed breaker rejected command: %v", err)
		}
		w.breakerRecord(7, false)
	}
	if st := w.BreakerFor(7); st.State != BreakerClosed || st.Fails != 2 {
		t.Fatalf("after 2 failures: %+v", st)
	}
	// Third consecutive failure opens it.
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
	advance(w, sim.Time(2*time.Second))
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
	advance(w, sim.Time(2*time.Second))
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

func TestBreakerListSortedAndConfigurable(t *testing.T) {
	w := breakerBench(2, sim.Time(time.Second))
	for _, id := range []phys.NodeID{9, 4} {
		w.breakerRecord(id, false)
		w.breakerRecord(id, false)
	}
	got := w.Breakers()
	if len(got) != 2 || got[0].Node != 4 || got[1].Node != 9 {
		t.Fatalf("Breakers = %+v, want nodes 4,9 in order", got)
	}
	// Disabling the breaker clears all state and admits everything.
	w.ConfigureBreaker(0, 0)
	if err := w.breakerAllow(9); err != nil {
		t.Fatalf("disabled breaker rejected command: %v", err)
	}
	w.breakerRecord(9, false)
	w.breakerRecord(9, false)
	w.breakerRecord(9, false)
	if st := w.BreakerFor(9); st.State != BreakerClosed {
		t.Fatalf("disabled breaker tripped: %+v", st)
	}
}

func TestHopGaps(t *testing.T) {
	mk := func(hops ...int) []TimedHopReport {
		out := make([]TimedHopReport, len(hops))
		for i, h := range hops {
			out[i].Hop = h
		}
		return out
	}
	cases := []struct {
		name    string
		reports []TimedHopReport
		want    []int
	}{
		{"no reports", nil, nil},
		{"contiguous", mk(1, 2, 3), nil},
		{"middle hop silent", mk(1, 3), []int{2}},
		{"two gaps", mk(1, 3, 5), []int{2, 4}},
		{"first hops silent", mk(4), []int{1, 2, 3}},
		{"duplicates collapse", mk(2, 2, 4), []int{1, 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := hopGaps(tc.reports); !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("hopGaps = %v, want %v", got, tc.want)
			}
		})
	}
}
