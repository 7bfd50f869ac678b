package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSubscriptionDeliversInOrder(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{}, 16)
	defer sub.Close()
	rec.Emit(1, LayerMAC, "a")
	rec.Emit(2, LayerMAC, "b")
	rec.Emit(3, LayerMedium, "c")
	got := sub.Poll(0)
	if len(got) != 3 {
		t.Fatalf("Poll = %d events, want 3", len(got))
	}
	for i, kind := range []string{"a", "b", "c"} {
		if got[i].Kind != kind {
			t.Fatalf("event %d kind = %q, want %q", i, got[i].Kind, kind)
		}
	}
	if sub.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", sub.Dropped())
	}
	if more := sub.Poll(0); len(more) != 0 {
		t.Fatalf("second Poll returned %d events, want 0", len(more))
	}
}

func TestSubscriptionFilter(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{Layer: LayerMAC, Node: 2}, 16)
	defer sub.Close()
	rec.Emit(1, LayerMAC, "skip-node")
	rec.Emit(2, LayerMedium, "skip-layer")
	rec.Emit(2, LayerMAC, "keep")
	got := sub.Poll(0)
	if len(got) != 1 || got[0].Kind != "keep" {
		t.Fatalf("filtered Poll = %+v, want one 'keep'", got)
	}
}

func TestSubscriptionRingDropsOldest(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{}, 4)
	defer sub.Close()
	for i := 0; i < 10; i++ {
		rec.Emit(1, LayerMAC, strings.Repeat("x", i+1))
	}
	if sub.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", sub.Dropped())
	}
	got := sub.Poll(0)
	if len(got) != 4 {
		t.Fatalf("Poll = %d events, want the 4 newest", len(got))
	}
	// The survivors are the newest four, still in arrival order.
	for i, want := range []uint64{7, 8, 9, 10} {
		if got[i].Seq != want {
			t.Fatalf("event %d seq = %d, want %d", i, got[i].Seq, want)
		}
	}
}

func TestSubscriptionPollMax(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{}, 16)
	defer sub.Close()
	for i := 0; i < 5; i++ {
		rec.Emit(1, LayerMAC, "e")
	}
	if got := sub.Poll(2); len(got) != 2 {
		t.Fatalf("Poll(2) = %d events", len(got))
	}
	if sub.Pending() != 3 {
		t.Fatalf("Pending = %d, want 3", sub.Pending())
	}
	if got := sub.Poll(0); len(got) != 3 {
		t.Fatalf("drain = %d events, want 3", len(got))
	}
}

func TestSubscriptionCloseDetaches(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{}, 4)
	rec.Emit(1, LayerMAC, "before")
	sub.Close()
	sub.Close() // idempotent
	rec.Emit(1, LayerMAC, "after")
	// Events buffered before the close stay pollable; later ones are
	// never delivered.
	got := sub.Poll(0)
	if len(got) != 1 || got[0].Kind != "before" {
		t.Fatalf("post-close Poll = %+v, want just the buffered 'before'", got)
	}
	if rec.hasSubs.Load() != 0 {
		t.Fatalf("hasSubs = %d after close", rec.hasSubs.Load())
	}
}

func TestSubscribeNilRecorder(t *testing.T) {
	var rec *Recorder
	sub := rec.Subscribe(Filter{}, 4)
	if sub != nil {
		t.Fatal("nil recorder should return a nil subscription")
	}
	// The nil subscription is inert, not a crash.
	if got := sub.Poll(0); len(got) != 0 {
		t.Fatalf("nil subscription returned %d events", len(got))
	}
	if sub.Dropped() != 0 || sub.Pending() != 0 {
		t.Fatal("nil subscription reported activity")
	}
	sub.Close()
}

// TestSubscriptionConcurrentConsumer exercises the one cross-goroutine
// contract: Subscribe/Poll/Dropped/Close from a consumer goroutine
// while the owning goroutine emits. Run with -race.
func TestSubscriptionConcurrentConsumer(t *testing.T) {
	_, rec := testRecorder()
	sub := rec.Subscribe(Filter{}, 64)
	var (
		wg  sync.WaitGroup
		got int
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			got += len(sub.Poll(0))
			select {
			case <-stop:
				got += len(sub.Poll(0))
				return
			default:
			}
		}
	}()
	const n = 5000
	for i := 0; i < n; i++ {
		rec.Emit(1, LayerMAC, "e")
	}
	close(stop)
	wg.Wait()
	if total := uint64(got) + sub.Dropped(); total != n {
		t.Fatalf("delivered %d + dropped %d != emitted %d", got, sub.Dropped(), n)
	}
	sub.Close()
}

func TestEventCapTrimsOldest(t *testing.T) {
	_, rec := testRecorder()
	rec.SetEventCap(10)
	sub := rec.Subscribe(Filter{}, 64)
	defer sub.Close()
	for i := 0; i < 30; i++ {
		rec.Emit(1, LayerMAC, "e")
	}
	if n := rec.Len(); n > 20 { // amortized: at most 2x the cap
		t.Fatalf("Len = %d with cap 10", n)
	}
	es := rec.Events()
	if es[len(es)-1].Seq != 30 {
		t.Fatalf("newest seq = %d, want 30", es[len(es)-1].Seq)
	}
	// The cap bounds retention only; the subscriber saw everything.
	if got := len(sub.Poll(0)); got != 30 {
		t.Fatalf("subscriber got %d events, want 30", got)
	}
	rec.SetEventCap(5)
	if n := rec.Len(); n != 5 {
		t.Fatalf("Len = %d after tightening cap to 5", n)
	}
}

func TestSpanStampsEnclosedEvents(t *testing.T) {
	eng, rec := testRecorder()
	rec.Emit(1, LayerMAC, "outside-before")
	id := rec.BeginSpan(9, "ping", Node("dst", 3))
	if id == 0 {
		t.Fatal("BeginSpan returned 0 while recording")
	}
	rec.Emit(1, LayerMAC, "inside")
	eng.Schedule(time.Second, func() { rec.Emit(2, LayerMedium, "inside-later") })
	eng.Run()
	rec.EndSpan(id, String("verdict", "ok"))
	rec.Emit(1, LayerMAC, "outside-after")

	var spans, stamped int
	for _, e := range rec.Events() {
		switch {
		case e.Layer == LayerSpan:
			spans++
			if e.Kind != "ping" || e.Span != id || e.NodeID != 9 {
				t.Fatalf("bad span record: %+v", e)
			}
			if e.At != 0 || e.Dur != time.Second {
				t.Fatalf("span extent = at %v dur %v, want at 0 dur 1s", e.At, e.Dur)
			}
			if v, _ := e.Attr("verdict"); v != "ok" {
				t.Fatalf("span lost its closing attrs: %+v", e.Attrs)
			}
			if v, _ := e.Attr("dst"); v != "3" {
				t.Fatalf("span lost its opening attrs: %+v", e.Attrs)
			}
		case strings.HasPrefix(e.Kind, "inside"):
			stamped++
			if e.Span != id {
				t.Fatalf("enclosed event not stamped: %+v", e)
			}
		default:
			if e.Span != 0 {
				t.Fatalf("event outside the span stamped with %d: %+v", e.Span, e)
			}
		}
	}
	if spans != 1 || stamped != 2 {
		t.Fatalf("spans = %d stamped = %d", spans, stamped)
	}
}

func TestSpanOutermostWins(t *testing.T) {
	_, rec := testRecorder()
	outer := rec.BeginSpan(1, "healthcheck")
	inner := rec.BeginSpan(1, "ping")
	if inner != 0 {
		t.Fatalf("nested BeginSpan = %d, want 0", inner)
	}
	rec.Emit(1, LayerMAC, "tx")
	rec.EndSpan(inner) // harmless no-op close
	rec.Emit(1, LayerMAC, "tx2")
	rec.EndSpan(outer, String("ok", "true"))

	var spans []Event
	for _, e := range rec.Events() {
		if e.Layer == LayerSpan {
			spans = append(spans, e)
		} else if e.Span != outer {
			t.Fatalf("event inside nested section lost the outer stamp: %+v", e)
		}
	}
	if len(spans) != 1 || spans[0].Kind != "healthcheck" {
		t.Fatalf("spans = %+v, want exactly the outer healthcheck", spans)
	}
}

func TestSpanPairingSurvivesRecordingToggles(t *testing.T) {
	_, rec := testRecorder()
	rec.Stop()
	id := rec.BeginSpan(1, "ping")
	if id != 0 {
		t.Fatalf("BeginSpan while stopped = %d, want 0", id)
	}
	rec.Start()
	// The nested span must still see itself as nested even though the
	// outer Begin happened while stopped — depth counts regardless.
	if inner := rec.BeginSpan(1, "inner"); inner != 0 {
		t.Fatalf("nested BeginSpan = %d, want 0", inner)
	}
	rec.EndSpan(0)
	rec.EndSpan(id)
	if id2 := rec.BeginSpan(1, "after"); id2 == 0 {
		t.Fatal("depth accounting leaked: BeginSpan returned 0 at top level")
	} else {
		rec.EndSpan(id2)
	}
	var nilRec *Recorder
	if nilRec.BeginSpan(1, "x") != 0 {
		t.Fatal("nil recorder BeginSpan != 0")
	}
	nilRec.EndSpan(0)
}
