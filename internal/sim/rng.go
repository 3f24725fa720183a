package sim

// RNG is a small, fast, deterministic pseudo-random stream (splitmix64).
// The simulator uses it wherever randomized behaviour is needed (workload
// generation, randomized backoff) so that runs are exactly reproducible
// from the seed without importing math/rand state into simulated code.
type RNG struct{ state uint64 }

// NewRNG returns a generator seeded with seed (0 is remapped so the stream
// is never degenerate).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next value in the stream.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a value in [0, n). It panics if n <= 0.
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: RNG.Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Duration returns a Time in [0, d). It panics if d <= 0.
func (r *RNG) Duration(d Time) Time {
	return Time(r.Int63n(int64(d)))
}

// Fork derives an independent stream; useful for giving each simulated
// thread its own deterministic randomness regardless of interleaving.
func (r *RNG) Fork() *RNG {
	return NewRNG(r.Uint64() | 1)
}
