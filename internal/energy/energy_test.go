package energy

import (
	"math"
	"testing"
	"time"

	"liteview/internal/radio"
	"liteview/internal/sim"
)

func meterFixture(t *testing.T) (*sim.Engine, *radio.Radio, *Meter) {
	t.Helper()
	eng := sim.NewEngine(1)
	rad, err := radio.New(17)
	if err != nil {
		t.Fatal(err)
	}
	return eng, rad, Attach(eng, rad, 0)
}

func TestIdleListeningAccrues(t *testing.T) {
	eng, _, m := meterFixture(t)
	eng.Schedule(10*time.Second, func() {})
	eng.Run()
	st := m.Stats()
	// 10 s of RX at 18.8 mA, 3 V: 0.564 J.
	want := radio.RXCurrentMA / 1000 * radio.SupplyVolts * 10
	if math.Abs(st.RXJ-want) > 1e-9 {
		t.Fatalf("RXJ = %f, want %f", st.RXJ, want)
	}
	if st.RXTime != 10*time.Second {
		t.Fatalf("RXTime = %v", st.RXTime)
	}
	if st.TXJ != 0 || st.OffJ != 0 {
		t.Fatalf("unexpected other-state energy: %+v", st)
	}
}

func TestTXChargedAtPALevel(t *testing.T) {
	eng, rad, m := meterFixture(t)
	// 1 s RX, then 2 s TX at full power, then RX again.
	eng.Schedule(time.Second, func() { rad.SetState(radio.TX) })
	eng.Schedule(3*time.Second, func() { rad.SetState(radio.RX) })
	eng.Schedule(4*time.Second, func() {})
	eng.Run()
	st := m.Stats()
	wantTX := radio.TXCurrentMA(31) / 1000 * radio.SupplyVolts * 2
	if math.Abs(st.TXJ-wantTX) > 1e-9 {
		t.Fatalf("TXJ = %f, want %f", st.TXJ, wantTX)
	}
	if st.TXTime != 2*time.Second {
		t.Fatalf("TXTime = %v", st.TXTime)
	}
	wantRX := radio.RXCurrentMA / 1000 * radio.SupplyVolts * 2 // 1s before + 1s after
	if math.Abs(st.RXJ-wantRX) > 1e-9 {
		t.Fatalf("RXJ = %f, want %f", st.RXJ, wantRX)
	}
}

func TestLowerPowerDrawsLess(t *testing.T) {
	run := func(level int) float64 {
		eng := sim.NewEngine(1)
		rad, _ := radio.New(17)
		rad.SetPowerLevel(level)
		m := Attach(eng, rad, 0)
		eng.Schedule(0, func() { rad.SetState(radio.TX) })
		eng.Schedule(5*time.Second, func() { rad.SetState(radio.RX) })
		eng.Run()
		return m.Stats().TXJ
	}
	hi, lo := run(31), run(3)
	if lo >= hi {
		t.Fatalf("PA 3 (%f J) should draw less than PA 31 (%f J)", lo, hi)
	}
	// Datasheet ratio: 8.5 vs 17.4 mA.
	if math.Abs(lo/hi-8.5/17.4) > 0.01 {
		t.Fatalf("ratio = %f, want %f", lo/hi, 8.5/17.4)
	}
}

func TestOffDrawsTrickle(t *testing.T) {
	eng, rad, m := meterFixture(t)
	eng.Schedule(0, func() { rad.SetState(radio.Off) })
	eng.Schedule(time.Hour, func() { rad.SetState(radio.RX) })
	eng.Run()
	st := m.Stats()
	if st.OffJ <= 0 {
		t.Fatal("off state free")
	}
	// An hour off must cost far less than a second of listening.
	if st.OffJ > radio.RXCurrentMA/1000*radio.SupplyVolts {
		t.Fatalf("OffJ = %f, too expensive", st.OffJ)
	}
}

func TestTimeConservation(t *testing.T) {
	eng, rad, m := meterFixture(t)
	eng.Schedule(time.Second, func() { rad.SetState(radio.TX) })
	eng.Schedule(2*time.Second, func() { rad.SetState(radio.Off) })
	eng.Schedule(5*time.Second, func() { rad.SetState(radio.RX) })
	eng.Schedule(9*time.Second, func() {})
	eng.Run()
	st := m.Stats()
	if st.TXTime+st.RXTime+st.OffTime != 9*time.Second {
		t.Fatalf("state residencies do not cover the timeline: %+v", st)
	}
}

func TestBatteryAccounting(t *testing.T) {
	eng := sim.NewEngine(1)
	rad, _ := radio.New(17)
	m := Attach(eng, rad, 1.0) // a 1-joule battery
	if m.RemainingFraction() != 1 {
		t.Fatalf("fresh battery = %f", m.RemainingFraction())
	}
	// 18.8 mA × 3 V ≈ 56.4 mW → the joule dies in ~17.7 s of listening.
	eng.Schedule(10*time.Second, func() {})
	eng.Run()
	frac := m.RemainingFraction()
	if frac <= 0.3 || frac >= 0.5 {
		t.Fatalf("after 10 s: %f remaining, want ≈ 0.436", frac)
	}
	eng.Schedule(20*time.Second, func() {})
	eng.Run()
	if m.RemainingJ() != 0 {
		t.Fatalf("overdrawn battery should floor at zero, got %f", m.RemainingJ())
	}
}

func TestLifetimeEstimate(t *testing.T) {
	eng, _, m := meterFixture(t)
	if _, ok := m.EstimateLifetime(); ok {
		t.Fatal("estimate before any consumption")
	}
	eng.Schedule(time.Minute, func() {})
	eng.Run()
	life, ok := m.EstimateLifetime()
	if !ok {
		t.Fatal("no estimate after consumption")
	}
	// Always-on listening at 56.4 mW on 27 kJ ≈ 5.5 days.
	days := float64(life) / float64(24*time.Hour)
	if days < 4 || days > 8 {
		t.Fatalf("lifetime = %.1f days, want ≈ 5.5", days)
	}
}

func TestStatsString(t *testing.T) {
	_, _, m := meterFixture(t)
	if m.Stats().String() == "" {
		t.Fatal("empty formatting")
	}
}
