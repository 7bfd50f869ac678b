// Package phys models the physical world the simulated motes live in:
// node positions, RF path loss, noise, and the mapping from
// signal-to-noise ratio to packet error rate.
//
// The paper's testbed is thirty MicaZ motes whose radio environment is
// shaped by distance, antenna orientation, and enclosures. We replace
// that with a log-distance path-loss model plus static lognormal
// shadowing, and — because LiteView explicitly diagnoses *asymmetric*
// links (Figure 6 plots forward and backward RSSI separately) — a static
// per-direction asymmetry term. Shadowing and asymmetry are drawn
// deterministically from the link endpoints and the model seed, so a
// given deployment has a fixed, repeatable radio map, the way a real
// deployment does over short time scales.
package phys

import (
	"fmt"
	"math"
)

// NodeID identifies a mote on the shared medium. IDs are 16-bit to match
// the address width of 802.15.4 short addresses.
type NodeID uint16

// Broadcast is the 802.15.4 broadcast short address.
const Broadcast NodeID = 0xFFFF

// Position is a node location in meters.
type Position struct {
	X, Y float64
}

// Distance returns the Euclidean distance between two positions in
// meters.
func (p Position) Distance(q Position) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

func (p Position) String() string {
	return fmt.Sprintf("(%.1f,%.1f)", p.X, p.Y)
}

// Model holds the RF propagation parameters. The zero value is not
// usable; construct with DefaultModel and adjust fields before first
// use.
type Model struct {
	// PL0 is the path loss in dB at the reference distance of 1 m.
	PL0 float64
	// Exponent is the path-loss exponent (2 free space, 3-4 indoor).
	Exponent float64
	// ShadowSigma is the standard deviation in dB of the static
	// lognormal shadowing drawn per unordered link.
	ShadowSigma float64
	// AsymSigma is the standard deviation in dB of the static
	// per-direction offset drawn per ordered link. It is what makes
	// forward and backward RSSI differ in Figure 6.
	AsymSigma float64
	// NoiseFloor is the receiver noise floor in dBm.
	NoiseFloor float64
	// Seed fixes the shadowing/asymmetry draws of this deployment.
	Seed uint64
}

// DefaultModel returns parameters calibrated so that nodes a few meters
// apart at full CC2420 power see RSSI register readings near 0 (as in
// the paper's sample ping output) and links beyond ~40 m become
// unreliable.
func DefaultModel(seed uint64) *Model {
	return &Model{
		PL0:         45.0,
		Exponent:    3.0,
		ShadowSigma: 3.0,
		AsymSigma:   1.5,
		NoiseFloor:  -95.0,
		Seed:        seed,
	}
}

// hash64 mixes x with the model seed (splitmix64 finalizer).
func (m *Model) hash64(x uint64) uint64 {
	z := x + m.Seed*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// gauss returns a deterministic standard normal deviate keyed by k,
// using the inverse of two uniform draws via Box-Muller.
func (m *Model) gauss(k uint64) float64 {
	u1 := float64(m.hash64(k)>>11)/(1<<53) + 1e-12
	u2 := float64(m.hash64(k^0xabcdef1234567890)>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Shadowing returns the static shadowing term in dB for the unordered
// link {a, b}. It is symmetric: Shadowing(a,b) == Shadowing(b,a).
// With ShadowSigma 0 it is +0, without a draw: sigma·gauss would be ±0,
// and Budget.Received is the same for either (x + (−0) == x).
func (m *Model) Shadowing(a, b NodeID) float64 {
	if m.ShadowSigma == 0 {
		return 0
	}
	lo, hi := a, b
	if lo > hi {
		lo, hi = hi, lo
	}
	key := uint64(lo)<<16 | uint64(hi)
	return m.ShadowSigma * m.gauss(key)
}

// Asymmetry returns the static per-direction offset in dB for the
// ordered link a→b. Asymmetry(a,b) and Asymmetry(b,a) are independent
// draws; their difference is what a LiteView user observes when
// comparing forward and backward RSSI. With AsymSigma 0 it is +0,
// without a draw, as Shadowing is.
func (m *Model) Asymmetry(a, b NodeID) float64 {
	if m.AsymSigma == 0 {
		return 0
	}
	key := uint64(a)<<32 | uint64(b) | 1<<48
	return m.AsymSigma * m.gauss(key)
}

// PathLoss returns the loss in dB over distance d in meters, excluding
// shadowing and asymmetry. Distances under 1 m clamp to the reference
// distance.
func (m *Model) PathLoss(d float64) float64 {
	if d < 1 {
		d = 1
	}
	return m.PL0 + 10*m.Exponent*math.Log10(d)
}

// MaxGaussDB is the largest magnitude gauss can produce. Box-Muller
// over u1 ≥ 1e-12 bounds the radius at sqrt(-2·ln 1e-12) ≈ 7.434, so
// every shadowing or asymmetry draw lies within ±MaxGaussDB standard
// deviations. The spatially sharded medium leans on this: it turns the
// model's "random" terms into a hard worst-case link budget.
const MaxGaussDB = 7.44

// MaxDeviationDB returns the largest total boost in dB the static
// shadowing and asymmetry draws can add to any directed link.
func (m *Model) MaxDeviationDB() float64 {
	return MaxGaussDB * (m.ShadowSigma + m.AsymSigma)
}

// DetectRange returns the distance in meters beyond which NO link in
// this deployment can deliver floorDBm to a receiver from a transmitter
// emitting txDBm — even with the most favourable shadowing and
// asymmetry draws the model can produce. It inverts PathLoss at the
// worst-case budget, so it is conservative: every pair farther apart
// than DetectRange is guaranteed under the floor, while pairs inside it
// must still be checked link by link. This bound is what sizes the
// sharded medium's cells: RF energy from a transmitter is provably
// confined to cells within DetectRange of it.
func (m *Model) DetectRange(txDBm, floorDBm float64) float64 {
	budget := txDBm - floorDBm + m.MaxDeviationDB() - m.PL0
	if budget <= 0 {
		return 1 // loss at the 1 m reference distance already exceeds the budget
	}
	return math.Pow(10, budget/(10*m.Exponent))
}

// Budget holds the static dB components of a directed link's budget:
// path loss, shadowing, and per-direction asymmetry. All three depend
// only on the endpoints' identities and positions and the model seed,
// so a Budget stays valid for as long as neither node moves. The medium
// keeps none: it computes each budget where it needs one and caches only
// the received powers derived from it.
type Budget struct {
	PathLossDB, ShadowDB, AsymDB float64
}

// Received returns the power in dBm arriving over this link when the
// transmitter emits txDBm. The terms are combined in exactly the
// arithmetic order Model.ReceivedPower uses, so a cached Budget
// reproduces bit-identical received powers.
func (b Budget) Received(txDBm float64) float64 {
	return txDBm - b.PathLossDB + b.ShadowDB + b.AsymDB
}

// LinkBudget returns the static link budget of the directed link
// from → to.
func (m *Model) LinkBudget(from, to NodeID, fromPos, toPos Position) Budget {
	return Budget{
		PathLossDB: m.PathLoss(fromPos.Distance(toPos)),
		ShadowDB:   m.Shadowing(from, to),
		AsymDB:     m.Asymmetry(from, to),
	}
}

// ReceivedPower returns the power in dBm that node 'to' at position
// 'toPos' receives from node 'from' at 'fromPos' transmitting at txDBm.
func (m *Model) ReceivedPower(txDBm float64, from, to NodeID, fromPos, toPos Position) float64 {
	return m.LinkBudget(from, to, fromPos, toPos).Received(txDBm)
}

// SNR returns the signal-to-noise ratio in dB for a received power.
func (m *Model) SNR(rxDBm float64) float64 {
	return rxDBm - m.NoiseFloor
}

// BER returns the bit error rate of 802.15.4 O-QPSK DSSS at the given
// SNR in dB, using the standard analytical approximation (IEEE 802.15.4
// / Zuniga & Krishnamachari): for linear SNR γ,
//
//	BER = (8/15) · (1/16) · Σ_{k=2}^{16} (−1)^k C(16,k) · exp(20·γ·(1/k − 1))
func BER(snrDB float64) float64 {
	gamma := math.Pow(10, snrDB/10)
	var sum float64
	for k := 2; k <= 16; k++ {
		term := binom16[k] * math.Exp(20*gamma*(1/float64(k)-1))
		if k%2 == 0 {
			sum += term
		} else {
			sum -= term
		}
	}
	ber := (8.0 / 15.0) * (1.0 / 16.0) * sum
	if ber < 0 {
		return 0
	}
	if ber > 0.5 {
		return 0.5
	}
	return ber
}

// binom16[k] = C(16, k) for the BER series.
var binom16 = [17]float64{
	1, 16, 120, 560, 1820, 4368, 8008, 11440,
	12870, 11440, 8008, 4368, 1820, 560, 120, 16, 1,
}

// CertainSNRDB is the SNR in dB at and above which PRR is exactly 1.0 in
// float64 for every frame length, so callers may skip the curve there.
// At 6 dB the linear SNR is γ = 10^0.6 ≥ 3.98, and the BER series is
// dominated by its k = 2 term:
//
//	BER ≤ (8/15)·(1/16)·120·e^(−10γ) + (k ≥ 3 terms, < 1e−20) ≈ 2.1e−17
//
// That is under 2^−54 ≈ 5.55e−17, half the spacing of float64 just
// below 1, so 1 − BER rounds to exactly 1 and Pow(1, x) = 1. BER only
// falls as the SNR rises (it is clamped to 0 from about 18.72 dB), so
// the same holds above. The curve leaves 1 just under the cutoff:
// PRR(5.89, 127) < 1 (TestCertainSNR).
const CertainSNRDB = 6.0

// PRR returns the probability that a frame of the given length in bytes
// is received without bit errors at the given SNR in dB.
func PRR(snrDB float64, lengthBytes int) float64 {
	if lengthBytes <= 0 {
		return 1
	}
	ber := BER(snrDB)
	return math.Pow(1-ber, float64(8*lengthBytes))
}
