package sim

import (
	"math/rand"

	"cqjoin/internal/lockdep"
)

// Source is a mutex-guarded deterministic random source. Every stochastic
// component of a simulation (workload generation, fault injection, strategy
// probes) draws from its own Source so that one int64 seed reproduces the
// whole run event for event, even when components interleave.
type Source struct {
	mu lockdep.Mutex[sourceMu]
	r  *rand.Rand
}

type sourceMu struct{} // Source.mu's lock class

// NewSource returns a Source seeded with the given value.
func NewSource(seed int64) *Source {
	return &Source{r: rand.New(rand.NewSource(seed))}
}

// Float64 returns a pseudo-random number in [0, 1).
func (s *Source) Float64() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Float64()
}

// Intn returns a pseudo-random int in [0, n).
func (s *Source) Intn(n int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Intn(n)
}

// Int63n returns a pseudo-random int64 in [0, n).
func (s *Source) Int63n(n int64) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.r.Int63n(n)
}
