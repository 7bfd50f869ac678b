package neighbor

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"liteview/internal/phys"
)

// TestChurnFullBlacklistedTable covers the pathological churn case: every
// slot pinned by a blacklist. New neighbors must be rejected rather than
// evicting a pin, and the rejection must not corrupt the table.
func TestChurnFullBlacklistedTable(t *testing.T) {
	tab := NewTable(2)
	tab.Observe(1, 100, -10, time.Second)
	tab.Observe(2, 100, -10, 2*time.Second)
	for _, id := range []int{1, 2} {
		if err := tab.Blacklist(phys.NodeID(id), true); err != nil {
			t.Fatal(err)
		}
	}
	if e := tab.Observe(3, 110, 0, 3*time.Second); e != nil {
		t.Fatalf("insert into fully-pinned table succeeded: %+v", e)
	}
	if tab.Len() != 2 {
		t.Fatalf("Len = %d after rejected insert", tab.Len())
	}
	for _, id := range []int{1, 2} {
		if _, ok := tab.Get(phys.NodeID(id)); !ok {
			t.Fatalf("pinned entry %d lost", id)
		}
	}
	// Unpinning one slot makes it the entry a stranger must beat: an
	// equal link is rejected, a stronger one takes its place.
	if err := tab.Blacklist(1, false); err != nil {
		t.Fatal(err)
	}
	if tab.Observe(3, 100, -10, 4*time.Second) != nil {
		t.Fatal("stranger admitted on a link equal to the unpinned entry's")
	}
	if tab.Observe(3, 101, -10, 4*time.Second) == nil {
		t.Fatal("insert after unpin failed")
	}
	if _, ok := tab.Get(1); ok {
		t.Fatal("unpinned weakest entry not evicted")
	}
}

// TestExpireRacesTxAck checks that an acknowledged unicast counts as
// hearing the neighbor: the ack must refresh LastHeard so a subsequent
// expiry sweep keeps the link the estimator just proved alive.
func TestExpireRacesTxAck(t *testing.T) {
	tab := NewTable(4)
	tab.Observe(7, 100, -10, time.Second)
	tab.Observe(8, 100, -10, time.Second)
	// Node 7 is acked at t=5s; node 8 stays silent.
	tab.ObserveTxResult(7, true, 5*time.Second)
	if n := tab.Expire(3 * time.Second); n != 1 {
		t.Fatalf("Expire removed %d entries, want 1", n)
	}
	if _, ok := tab.Get(7); !ok {
		t.Fatal("acked neighbor expired despite fresh ack")
	}
	if _, ok := tab.Get(8); ok {
		t.Fatal("silent neighbor survived expiry")
	}
	// A failed unicast is not evidence of life: it must not refresh.
	tab.ObserveTxResult(7, false, 10*time.Second)
	if n := tab.Expire(8 * time.Second); n != 1 {
		t.Fatalf("Expire after failed tx removed %d entries, want 1", n)
	}
}

// TestDeliveryCurve drives the EWMA through scripted outcome runs and
// checks the penalty/recovery shape against an independently computed
// reference, including the minDelivery floor and the suspect threshold.
func TestDeliveryCurve(t *testing.T) {
	cases := []struct {
		name        string
		outcomes    []bool // true = acked
		wantSuspect bool
	}{
		{"all acked", []bool{true, true, true, true}, false},
		{"two failures stay trusted", []bool{false, false}, false},
		{"threshold marks suspect", []bool{false, false, false}, true},
		{"ack clears a streak", []bool{false, false, false, true}, false},
		{"long blackout floors", make([]bool, 40), true},
		{"recovery after blackout", append(make([]bool, 10), true, true, true, true, true), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewTable(4)
			tab.Observe(9, 100, -10, time.Second)
			want := 1.0
			for i, ok := range tc.outcomes {
				tab.ObserveTxResult(9, ok, time.Duration(i+2)*time.Second)
				target := 0.0
				if ok {
					target = 1
				}
				want += ewmaAlpha * (target - want)
				if !ok && want < minDelivery {
					want = minDelivery
				}
			}
			got, _ := tab.Get(9)
			if math.Abs(got.Delivery-want) > 1e-12 {
				t.Fatalf("Delivery = %g, want %g", got.Delivery, want)
			}
			if got.Suspect != tc.wantSuspect {
				t.Fatalf("Suspect = %v, want %v", got.Suspect, tc.wantSuspect)
			}
			if got.Delivery < minDelivery {
				t.Fatalf("Delivery %g below floor %g", got.Delivery, minDelivery)
			}
			if got.ETX() > 1/minDelivery+1e-9 {
				t.Fatalf("ETX %g exceeds the finite bound", got.ETX())
			}
		})
	}
}

// TestDeliverySeededChurn fuzzes the estimator with a seeded outcome
// stream and asserts the invariants that must survive arbitrary churn:
// the estimate stays in [minDelivery, 1], suspect tracks the streak
// counter, and the stats counters account for every outcome.
func TestDeliverySeededChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	tab := NewTable(4)
	tab.Observe(3, 100, -10, time.Second)
	var acked, failed uint64
	streak := 0
	for i := 0; i < 500; i++ {
		ok := rng.Intn(3) > 0 // 2/3 delivery
		tab.ObserveTxResult(3, ok, time.Duration(i+2)*time.Second)
		if ok {
			acked++
			streak = 0
		} else {
			failed++
			streak++
		}
		e, _ := tab.Get(3)
		if e.Delivery < minDelivery || e.Delivery > 1 {
			t.Fatalf("step %d: Delivery %g out of range", i, e.Delivery)
		}
		if streak >= SuspectAfter && !e.Suspect {
			t.Fatalf("step %d: streak %d but not suspect", i, streak)
		}
		if streak == 0 && e.Suspect {
			t.Fatalf("step %d: acked but still suspect", i)
		}
	}
	st := tab.EstimatorStats()
	if st.TxAcked != acked || st.TxFailed != failed {
		t.Fatalf("stats = %+v, want %d acked / %d failed", st, acked, failed)
	}
	if st.SuspectMarks == 0 || st.SuspectClears == 0 {
		t.Fatalf("expected both marks and clears under churn: %+v", st)
	}
	tab.ResetEstimatorStats()
	if tab.EstimatorStats() != (EstimatorStats{}) {
		t.Fatal("ResetEstimatorStats left counters behind")
	}
}

// TestTxResultUnknownDestination checks that outcomes for evicted or
// never-seen destinations are counted and dropped, not used to fabricate
// entries without link metadata.
func TestTxResultUnknownDestination(t *testing.T) {
	tab := NewTable(4)
	if became := tab.ObserveTxResult(99, false, time.Second); became {
		t.Fatal("unknown destination became suspect")
	}
	if tab.Len() != 0 {
		t.Fatal("tx outcome fabricated an entry")
	}
	if st := tab.EstimatorStats(); st.TxUnknownDst != 1 || st.TxFailed != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestMarkSuspectDirect covers routing's direct path: marking before the
// estimator threshold, idempotence of the counters, and the sorted
// Suspects view the shell renders.
func TestMarkSuspectDirect(t *testing.T) {
	tab := NewTable(4)
	if err := tab.MarkSuspect(5, true); !errors.Is(err, ErrUnknownNeighbor) {
		t.Fatalf("err = %v, want ErrUnknownNeighbor", err)
	}
	tab.Observe(6, 100, -10, time.Second)
	tab.Observe(5, 100, -10, time.Second)
	for _, id := range []int{6, 5} {
		if err := tab.MarkSuspect(phys.NodeID(id), true); err != nil {
			t.Fatal(err)
		}
	}
	// Re-marking must not inflate the counter.
	if err := tab.MarkSuspect(5, true); err != nil {
		t.Fatal(err)
	}
	if st := tab.EstimatorStats(); st.SuspectMarks != 2 {
		t.Fatalf("SuspectMarks = %d, want 2", st.SuspectMarks)
	}
	sus := tab.Suspects()
	if len(sus) != 2 || sus[0].ID != 5 || sus[1].ID != 6 {
		t.Fatalf("Suspects = %+v, want IDs 5,6 in order", sus)
	}
	if err := tab.MarkSuspect(5, false); err != nil {
		t.Fatal(err)
	}
	if st := tab.EstimatorStats(); st.SuspectClears != 1 {
		t.Fatalf("SuspectClears = %d, want 1", st.SuspectClears)
	}
	if got, _ := tab.Get(5); got.Suspect {
		t.Fatal("clear did not stick")
	}
}

// TestFailStreakSaturates checks that a failure streak far past the
// fail counter's range keeps the link suspect without marking it again,
// and that after one ack it takes SuspectAfter fresh failures to mark
// it once more.
func TestFailStreakSaturates(t *testing.T) {
	tab := NewTable(4)
	tab.Observe(7, 100, -10, time.Second)
	marks := 0
	for i := 0; i < 1000; i++ {
		if tab.ObserveTxResult(7, false, time.Second) {
			marks++
		}
	}
	if e, _ := tab.Get(7); marks != 1 || !e.Suspect || e.consecFails != math.MaxUint8 {
		t.Fatalf("after 1000 failures: %d marks, suspect %v, fails %d; want 1, true, 255", marks, e.Suspect, e.consecFails)
	}
	tab.ObserveTxResult(7, true, time.Second)
	for i := 1; i <= SuspectAfter; i++ {
		if became := tab.ObserveTxResult(7, false, time.Second); became != (i == SuspectAfter) {
			t.Fatalf("failure %d after an ack: became suspect %v", i, became)
		}
	}
}
