package radio

import (
	"testing"
	"testing/quick"
	"time"
)

func TestPowerDBmCalibrationPoints(t *testing.T) {
	cases := map[int]float64{
		3: -25, 7: -15, 11: -10, 15: -7, 19: -5, 23: -3, 27: -1, 31: 0,
	}
	for level, want := range cases {
		if got := PowerDBm(level); got != want {
			t.Errorf("PowerDBm(%d) = %f, want %f", level, got, want)
		}
	}
}

func TestPowerDBmMonotonic(t *testing.T) {
	prev := PowerDBm(MinPowerLevel)
	for level := MinPowerLevel + 1; level <= MaxPowerLevel; level++ {
		cur := PowerDBm(level)
		if cur < prev {
			t.Fatalf("PowerDBm not monotone at level %d: %f < %f", level, cur, prev)
		}
		prev = cur
	}
}

func TestPowerDBmClamps(t *testing.T) {
	if PowerDBm(0) != -25 || PowerDBm(100) != 0 {
		t.Fatal("out-of-range levels should clamp to endpoints")
	}
}

func TestPaperPowerLevels(t *testing.T) {
	// Figure 6 uses levels 10 and 25; level 25 must be meaningfully
	// stronger than level 10.
	p10, p25 := PowerDBm(10), PowerDBm(25)
	if p25-p10 < 5 {
		t.Fatalf("PA 25 (%f dBm) vs PA 10 (%f dBm): delta too small", p25, p10)
	}
}

func TestRSSIRegisterPaperExample(t *testing.T) {
	// Paper: "a RSSI reading of -20 indicates ... approximately -65 dBm".
	if got := RSSIRegister(-65); got != -20 {
		t.Fatalf("RSSIRegister(-65 dBm) = %d, want -20", got)
	}
}

func TestRSSIRoundTrip(t *testing.T) {
	f := func(p int8) bool {
		dBm := float64(p) // -128..127 dBm, covers the whole register range
		reg := RSSIRegister(dBm)
		if dBm-RSSIOffset < -128 || dBm-RSSIOffset > 127 {
			return true // clamped; skip round-trip
		}
		return float64(reg)+RSSIOffset == dBm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLQIRange(t *testing.T) {
	f := func(s int8) bool {
		l := LQI(float64(s))
		return l >= 50 && l <= 110
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLQIMonotonicAndSaturating(t *testing.T) {
	prev := 0
	for snr := -10.0; snr <= 40; snr++ {
		l := LQI(snr)
		if l < prev {
			t.Fatalf("LQI decreased at snr=%f", snr)
		}
		prev = l
	}
	if LQI(30) != 110 {
		t.Fatalf("LQI should saturate at 110, got %d", LQI(30))
	}
	if LQI(-5) != 50 {
		t.Fatalf("LQI floor should be 50, got %d", LQI(-5))
	}
}

func TestFrameAirtime(t *testing.T) {
	// A 32-byte frame: (6 + 32) * 32 µs = 1216 µs.
	if got := FrameAirtime(32); got != 1216*time.Microsecond {
		t.Fatalf("FrameAirtime(32) = %v, want 1.216ms", got)
	}
	if FrameAirtime(0) != 6*32*time.Microsecond {
		t.Fatal("zero-byte frame should still pay PHY overhead")
	}
}

func TestRadioDefaults(t *testing.T) {
	r, err := New(17)
	if err != nil {
		t.Fatal(err)
	}
	if r.State() != RX {
		t.Fatalf("new radio state = %v, want rx", r.State())
	}
	if r.PowerLevel() != MaxPowerLevel {
		t.Fatalf("new radio power = %d, want %d", r.PowerLevel(), MaxPowerLevel)
	}
	if r.Channel() != 17 {
		t.Fatalf("channel = %d, want 17", r.Channel())
	}
	if got := PowerDBm(r.PowerLevel()); got != 0 {
		t.Fatalf("full power should be 0 dBm, got %f", got)
	}
}

func TestSetPowerLevelValidation(t *testing.T) {
	r, _ := New(11)
	if err := r.SetPowerLevel(2); err == nil {
		t.Fatal("level 2 accepted")
	}
	if err := r.SetPowerLevel(32); err == nil {
		t.Fatal("level 32 accepted")
	}
	if err := r.SetPowerLevel(10); err != nil {
		t.Fatal(err)
	}
	if r.PowerLevel() != 10 {
		t.Fatal("level not stored")
	}
}

func TestSetChannelValidation(t *testing.T) {
	r, _ := New(11)
	if err := r.SetChannel(10); err == nil {
		t.Fatal("channel 10 accepted")
	}
	if err := r.SetChannel(27); err == nil {
		t.Fatal("channel 27 accepted")
	}
	if err := r.SetChannel(26); err != nil {
		t.Fatal(err)
	}
	if _, err := New(5); err == nil {
		t.Fatal("New with bad channel accepted")
	}
}

func TestNumChannels(t *testing.T) {
	if n := MaxChannel - MinChannel + 1; n != 16 {
		t.Fatalf("%d channels, want 16 (paper)", n)
	}
}

func TestStateString(t *testing.T) {
	if Off.String() != "off" || RX.String() != "rx" || TX.String() != "tx" {
		t.Fatal("state strings wrong")
	}
	if State(9).String() == "" {
		t.Fatal("unknown state should still format")
	}
}
