package sim

// Rand is a small, fast, deterministic random stream based on
// splitmix64. The simulation cannot use math/rand's global state: every
// model component forks its own stream so that the packet-level trace of
// a scenario depends only on (topology, seed, script), not on the order
// in which unrelated components happen to draw.
type Rand struct {
	state uint64
}

// NewRand returns a stream seeded with seed. Seed zero is valid.
func NewRand(seed uint64) *Rand {
	return &Rand{state: seed + 0x9e3779b97f4a7c15}
}

// Fork derives an independent child stream labelled by label. Forking is
// deterministic: the same parent state and label always produce the same
// child. Fork advances the parent by one draw.
func (r *Rand) Fork(label string) *Rand {
	h := r.Uint64()
	for _, b := range []byte(label) {
		h ^= uint64(b)
		h *= 0x100000001b3
	}
	return NewRand(h)
}

// Uint64 returns the next 64 uniformly random bits.
func (r *Rand) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (r *Rand) Bool(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}

// Jitter returns a uniform duration in [0, max). A non-positive max
// yields zero, which lets callers pass configured windows through
// without special-casing "no jitter".
func (r *Rand) Jitter(max Time) Time {
	if max <= 0 {
		return 0
	}
	return Time(r.Uint64() % uint64(max))
}
