package phys

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	a := Position{0, 0}
	b := Position{3, 4}
	if d := a.Distance(b); d != 5 {
		t.Fatalf("distance = %f, want 5", d)
	}
	if d := a.Distance(a); d != 0 {
		t.Fatalf("self distance = %f", d)
	}
	if a.Distance(b) != b.Distance(a) {
		t.Fatal("distance not symmetric")
	}
}

func TestPathLossMonotonic(t *testing.T) {
	m := DefaultModel(1)
	f := func(a, b uint16) bool {
		d1 := 1 + float64(a%5000)/10 // 1..501 m
		d2 := d1 + 1 + float64(b%100)
		return m.PathLoss(d2) > m.PathLoss(d1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPathLossClampsBelowOneMeter(t *testing.T) {
	m := DefaultModel(1)
	if m.PathLoss(0.1) != m.PathLoss(1) {
		t.Fatal("sub-meter distances should clamp to the reference distance")
	}
	if m.PathLoss(1) != m.PL0 {
		t.Fatalf("PL(1m) = %f, want PL0 = %f", m.PathLoss(1), m.PL0)
	}
}

func TestShadowingSymmetricAndStable(t *testing.T) {
	m := DefaultModel(7)
	for a := NodeID(1); a < 20; a++ {
		for b := a + 1; b < 20; b++ {
			s1 := m.Shadowing(a, b)
			s2 := m.Shadowing(b, a)
			if s1 != s2 {
				t.Fatalf("shadowing asymmetric for (%d,%d): %f vs %f", a, b, s1, s2)
			}
			if s1 != m.Shadowing(a, b) {
				t.Fatal("shadowing not stable across calls")
			}
		}
	}
}

func TestShadowingDependsOnSeed(t *testing.T) {
	m1, m2 := DefaultModel(1), DefaultModel(2)
	diff := 0
	for a := NodeID(1); a < 30; a++ {
		if m1.Shadowing(a, a+1) != m2.Shadowing(a, a+1) {
			diff++
		}
	}
	if diff < 25 {
		t.Fatalf("only %d/29 links differ across seeds", diff)
	}
}

func TestAsymmetryIsDirectional(t *testing.T) {
	m := DefaultModel(3)
	diff := 0
	for a := NodeID(1); a < 40; a++ {
		if m.Asymmetry(a, a+1) != m.Asymmetry(a+1, a) {
			diff++
		}
	}
	if diff < 35 {
		t.Fatalf("only %d/39 ordered pairs have direction-dependent offsets", diff)
	}
}

func TestShadowingMagnitude(t *testing.T) {
	m := DefaultModel(11)
	var sum, sumSq float64
	n := 0
	for a := NodeID(0); a < 100; a++ {
		for b := a + 1; b < 100; b += 7 {
			s := m.Shadowing(a, b)
			sum += s
			sumSq += s * s
			n++
		}
	}
	mean := sum / float64(n)
	sd := math.Sqrt(sumSq/float64(n) - mean*mean)
	if math.Abs(mean) > 1.0 {
		t.Fatalf("shadowing mean = %f dB, want ~0", mean)
	}
	if sd < m.ShadowSigma*0.6 || sd > m.ShadowSigma*1.4 {
		t.Fatalf("shadowing sd = %f dB, want ~%f", sd, m.ShadowSigma)
	}
}

func TestReceivedPowerDecreasesWithDistance(t *testing.T) {
	m := DefaultModel(1)
	m.ShadowSigma = 0
	m.AsymSigma = 0
	from := Position{0, 0}
	prev := math.Inf(1)
	for d := 1.0; d <= 100; d += 5 {
		rx := m.ReceivedPower(0, 1, 2, from, Position{d, 0})
		if rx >= prev {
			t.Fatalf("rx power did not decrease at d=%f", d)
		}
		prev = rx
	}
}

// TestZeroSigmaSkipsDraws checks that with both sigmas 0 the shadowing
// and asymmetry terms are exactly +0, drawn without a gauss, and that
// received powers equal the sigma·gauss arithmetic bit for bit: that
// product is −0 on every negative draw, and x + (−0) == x.
func TestZeroSigmaSkipsDraws(t *testing.T) {
	negZero := 0
	for _, pl0 := range []float64{40, 44.5, 45, 46, 52.25} {
		m := DefaultModel(9)
		m.PL0, m.ShadowSigma, m.AsymSigma = pl0, 0, 0
		for a := NodeID(1); a < 40; a++ {
			for b := NodeID(1); b < 40; b++ {
				if a == b {
					continue
				}
				sh, as := m.Shadowing(a, b), m.Asymmetry(a, b)
				if sh != 0 || as != 0 || math.Signbit(sh) || math.Signbit(as) {
					t.Fatalf("PL0 %v, %d→%d: shadowing %v, asymmetry %v, want +0 and +0", pl0, a, b, sh, as)
				}
				lo, hi := min(a, b), max(a, b)
				shDraw := m.ShadowSigma * m.gauss(uint64(lo)<<16|uint64(hi))
				asDraw := m.AsymSigma * m.gauss(uint64(a)<<32|uint64(b)|1<<48)
				if math.Signbit(shDraw) || math.Signbit(asDraw) {
					negZero++
				}
				from, to := Position{X: float64(a) * 3.7, Y: 1}, Position{X: 2, Y: float64(b) * 5.3}
				for _, tx := range []float64{0, -7, -25} {
					got := m.ReceivedPower(tx, a, b, from, to)
					want := tx - m.PathLoss(from.Distance(to)) + shDraw + asDraw
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("PL0 %v, %d→%d at %v dBm: received %v, sigma·gauss arithmetic %v", pl0, a, b, tx, got, want)
					}
				}
			}
		}
	}
	if negZero == 0 {
		t.Fatal("no draw was negative: the −0 case went untested")
	}
}

func TestReceivedPowerScalesWithTxPower(t *testing.T) {
	m := DefaultModel(1)
	p1, p2 := Position{0, 0}, Position{10, 0}
	lo := m.ReceivedPower(-10, 1, 2, p1, p2)
	hi := m.ReceivedPower(0, 1, 2, p1, p2)
	if math.Abs((hi-lo)-10) > 1e-9 {
		t.Fatalf("tx power delta not preserved: %f", hi-lo)
	}
}

func TestBERBounds(t *testing.T) {
	f := func(s int8) bool {
		ber := BER(float64(s))
		return ber >= 0 && ber <= 0.5
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBERMonotoneDecreasing(t *testing.T) {
	prev := 1.0
	for snr := -10.0; snr <= 15; snr += 0.5 {
		ber := BER(snr)
		if ber > prev+1e-12 {
			t.Fatalf("BER increased at snr=%f", snr)
		}
		prev = ber
	}
}

func TestBERExtremes(t *testing.T) {
	if BER(30) > 1e-9 {
		t.Fatalf("BER at 30 dB = %g, want ~0", BER(30))
	}
	if BER(-20) < 0.2 {
		t.Fatalf("BER at -20 dB = %g, want near 0.5", BER(-20))
	}
}

// TestCertainSNR checks the bound CertainSNRDB documents: PRR is
// exactly 1 for every frame length at and above it, across a 1e-5 dB
// sweep up to 19 dB (BER is clamped to 0 from about 18.72 dB) and at
// +Inf. Just under it the curve is below 1, so the constant is nearly
// tight.
//
// The fine sweep checks the shortest and longest frames only: PRR is
// Pow(1−BER, 8n), and the float64 just under 1, raised to the 8th
// power, is still under 1, so PRR(s, 1) == 1 means 1−BER is exactly 1
// and every length gets Pow(1, 8n) = 1. Every length is checked on a
// 0.01 dB grid.
func TestCertainSNR(t *testing.T) {
	const maxFrame = 127
	check := func(s float64, n int) {
		if p := PRR(s, n); p != 1 {
			t.Fatalf("PRR(%v, %d) = %v, want exactly 1", s, n, p)
		}
	}
	for i := 0; ; i++ {
		s := CertainSNRDB + float64(i)*1e-5
		if s > 19 {
			break
		}
		check(s, 1)
		check(s, maxFrame)
		if i%1000 == 0 {
			for n := 2; n < maxFrame; n++ {
				check(s, n)
			}
		}
	}
	for n := 1; n <= maxFrame; n++ {
		check(math.Inf(1), n)
	}
	if p := PRR(5.89, maxFrame); p >= 1 {
		t.Fatalf("PRR(5.89, %d) = %v, want under 1", maxFrame, p)
	}
}

func TestPRRProperties(t *testing.T) {
	// PRR decreases with length at fixed SNR.
	if PRR(3, 10) < PRR(3, 100) {
		t.Fatal("longer frames should have lower PRR")
	}
	// PRR increases with SNR at fixed length.
	if PRR(0, 50) > PRR(6, 50) {
		t.Fatal("higher SNR should have higher PRR")
	}
	if PRR(5, 0) != 1 {
		t.Fatal("zero-length frame PRR must be 1")
	}
	// Good link: near-perfect delivery.
	if PRR(15, 64) < 0.999 {
		t.Fatalf("PRR at 15 dB for 64 B = %f, want ~1", PRR(15, 64))
	}
	// Dead link.
	if PRR(-8, 64) > 0.01 {
		t.Fatalf("PRR at -8 dB for 64 B = %f, want ~0", PRR(-8, 64))
	}
}

func TestSNR(t *testing.T) {
	m := DefaultModel(1)
	if snr := m.SNR(-85); math.Abs(snr-10) > 1e-9 {
		t.Fatalf("SNR(-85 dBm) = %f, want 10 dB", snr)
	}
}

func TestDefaultModelPlausibleRange(t *testing.T) {
	// At full power (0 dBm) and 5 m, the link should be excellent; at
	// 200 m it should be dead. This pins the model to the paper's
	// testbed scale (motes meters apart, multi-hop over tens of meters).
	m := DefaultModel(1)
	m.ShadowSigma = 0
	m.AsymSigma = 0
	near := m.ReceivedPower(0, 1, 2, Position{0, 0}, Position{5, 0})
	if p := PRR(m.SNR(near), 64); p < 0.999 {
		t.Fatalf("5m full-power link PRR = %f, want ~1", p)
	}
	far := m.ReceivedPower(0, 1, 2, Position{0, 0}, Position{200, 0})
	if p := PRR(m.SNR(far), 64); p > 0.05 {
		t.Fatalf("200m link PRR = %f, want ~0", p)
	}
}

// TestMaxGaussBound verifies the documented hard bound on the model's
// deviate generator: the sharded medium's cell sizing is only sound if
// no shadowing or asymmetry draw can ever exceed MaxGaussDB sigmas.
func TestMaxGaussBound(t *testing.T) {
	m := DefaultModel(99)
	for k := uint64(0); k < 200000; k++ {
		if g := math.Abs(m.gauss(k)); g > MaxGaussDB {
			t.Fatalf("gauss(%d) = %f exceeds MaxGaussDB = %f", k, g, MaxGaussDB)
		}
	}
	// The analytic worst case: u1 is clamped at 1e-12, so the radius is
	// bounded by sqrt(-2 ln 1e-12) < 7.44.
	if worst := math.Sqrt(-2 * math.Log(1e-12)); worst > MaxGaussDB {
		t.Fatalf("analytic bound %f exceeds MaxGaussDB", worst)
	}
}

// TestDetectRangeIsConservative samples many links and checks that no
// pair separated by more than DetectRange can clear the floor.
func TestDetectRangeIsConservative(t *testing.T) {
	m := DefaultModel(5)
	const txDBm, floorDBm = 0.0, -106.0
	r := m.DetectRange(txDBm, floorDBm)
	if r <= 1 {
		t.Fatalf("DetectRange = %f, want a usable radius", r)
	}
	for a := NodeID(1); a <= 60; a++ {
		for b := a + 1; b <= 60; b++ {
			pa := Position{}
			pb := Position{X: r * 1.0000001} // just outside the bound
			if got := m.ReceivedPower(txDBm, a, b, pa, pb); got >= floorDBm {
				t.Fatalf("link %d→%d at %.1f m received %f dBm, above floor %f",
					a, b, pb.X, got, floorDBm)
			}
		}
	}
	// Inside the bound, at least some links must clear the floor
	// (otherwise the bound would be vacuous).
	ok := false
	for a := NodeID(1); a <= 60 && !ok; a++ {
		pb := Position{X: r * 0.02}
		if m.ReceivedPower(txDBm, a, a+1, Position{}, pb) >= floorDBm {
			ok = true
		}
	}
	if !ok {
		t.Fatal("no link inside DetectRange cleared the floor")
	}
}

// TestDetectRangeZeroSigma pins the closed form when shadowing and
// asymmetry are disabled: PL0 + 10·n·log10(d) = tx − floor.
func TestDetectRangeZeroSigma(t *testing.T) {
	m := DefaultModel(1)
	m.ShadowSigma = 0
	m.AsymSigma = 0
	got := m.DetectRange(0, -106)
	want := math.Pow(10, (0+106-m.PL0)/(10*m.Exponent))
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("DetectRange = %f, want %f", got, want)
	}
	// A hopeless budget clamps to the reference distance.
	if m.DetectRange(-300, -106) != 1 {
		t.Fatal("negative budget should clamp to 1 m")
	}
}
