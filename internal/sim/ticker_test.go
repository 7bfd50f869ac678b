package sim

import (
	"testing"
	"testing/quick"
	"time"
)

// quickCheck wraps testing/quick with a bounded count.
func quickCheck(f any) error {
	return quick.Check(f, &quick.Config{MaxCount: 150})
}

func TestTickerFiresPeriodically(t *testing.T) {
	eng := NewEngine(1)
	n := 0
	tk, err := NewTicker(eng, time.Second, func() { n++ })
	if err != nil {
		t.Fatal(err)
	}
	tk.Start(0)
	eng.RunUntil(10 * time.Second)
	if n != 10 {
		t.Fatalf("fired %d times in 10 s at 1 s period", n)
	}
}

func TestTickerPhase(t *testing.T) {
	eng := NewEngine(2)
	var first Time
	tk, _ := NewTicker(eng, time.Second, func() {
		if first == 0 {
			first = eng.Now()
		}
	})
	tk.Start(250 * time.Millisecond)
	eng.RunUntil(5 * time.Second)
	if first != 250*time.Millisecond {
		t.Fatalf("first fire at %v", first)
	}
}

func TestTickerStopAndRestart(t *testing.T) {
	eng := NewEngine(3)
	n := 0
	tk, _ := NewTicker(eng, time.Second, func() { n++ })
	tk.Start(0)
	eng.RunUntil(5 * time.Second)
	tk.Stop()
	if tk.Running() {
		t.Fatal("running after Stop")
	}
	eng.RunUntil(20 * time.Second)
	if n != 5 {
		t.Fatalf("ticks after stop: %d", n)
	}
	tk.Start(0)
	tk.Start(0) // idempotent
	eng.RunUntil(25 * time.Second)
	if n != 10 {
		t.Fatalf("ticks after restart: %d", n)
	}
}

func TestTickerSetPeriod(t *testing.T) {
	eng := NewEngine(4)
	n := 0
	tk, _ := NewTicker(eng, time.Second, func() { n++ })
	tk.Start(0)
	eng.RunUntil(2 * time.Second) // 2 fires
	if err := tk.SetPeriod(250 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(4 * time.Second) // 2 s at 4 Hz = 8 more
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
	if tk.Period() != 250*time.Millisecond {
		t.Fatalf("period = %v", tk.Period())
	}
	if err := tk.SetPeriod(0); err == nil {
		t.Fatal("zero period accepted")
	}
	// SetPeriod while stopped just stores it.
	tk.Stop()
	if err := tk.SetPeriod(time.Minute); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(10 * time.Minute)
	if n != 10 {
		t.Fatal("stopped ticker fired after SetPeriod")
	}
}

func TestTickerStopFromCallback(t *testing.T) {
	eng := NewEngine(5)
	n := 0
	var tk *Ticker
	tk, _ = NewTicker(eng, time.Second, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	tk.Start(0)
	eng.RunUntil(time.Minute)
	if n != 3 {
		t.Fatalf("ticks = %d, want 3 (self-stop)", n)
	}
}

func TestTickerValidation(t *testing.T) {
	eng := NewEngine(6)
	if _, err := NewTicker(nil, time.Second, func() {}); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := NewTicker(eng, time.Second, nil); err == nil {
		t.Fatal("nil callback accepted")
	}
	if _, err := NewTicker(eng, 0, func() {}); err == nil {
		t.Fatal("zero period accepted")
	}
}

func TestRunUntilMonotonicProperty(t *testing.T) {
	// For any batch of event delays and any split point, running in two
	// RunUntil steps fires the same events in the same order as one Run.
	prop := func(delays []uint16, splitAt uint16) bool {
		if len(delays) == 0 {
			return true
		}
		record := func(two bool) []int {
			eng := NewEngine(1)
			var order []int
			for i, d := range delays {
				i := i
				eng.Schedule(Time(d)*time.Millisecond, func() { order = append(order, i) })
			}
			if two {
				eng.RunUntil(Time(splitAt) * time.Millisecond)
				eng.Run()
			} else {
				eng.Run()
			}
			return order
		}
		one, split := record(false), record(true)
		if len(one) != len(split) {
			return false
		}
		for i := range one {
			if one[i] != split[i] {
				return false
			}
		}
		return true
	}
	if err := quickCheck(prop); err != nil {
		t.Fatal(err)
	}
}
