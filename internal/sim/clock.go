// Package sim supplies the simulation substrate shared by all experiments:
// a logical clock standing in for the NTP-synchronized clocks of Section 3.1,
// and deterministic random sources for reproducible workloads.
package sim

import "cqjoin/internal/lockdep"

// Clock is the single logical clock of a simulated network. The paper
// assumes nodes synchronize real clocks within a few milliseconds via NTP;
// the algorithms only ever compare a tuple's publication time against a
// query's insertion time (pubT(t) >= insT(q)), so any shared monotone
// counter preserves the time semantics of Section 3.2.
//
// The zero Clock is ready to use and starts at time 1 so that time value 0
// can mean "unset".
type Clock struct {
	mu        lockdep.Mutex[clockMu]
	now       int64
	listeners []func(now int64)
}

type clockMu struct{} // Clock.mu's lock class

// AddListener registers fn to run after every Tick or Advance, outside the
// clock's lock, with the new time. The chaos layer hangs its delay queue
// here so that held-back messages are released the moment logical time
// passes their due instant — whoever advances the clock (a publish, a
// retry backoff) transparently drives delivery.
func (c *Clock) AddListener(fn func(now int64)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.listeners = append(c.listeners, fn)
}

// notify invokes the registered listeners outside the lock. Listeners may
// advance the clock again; re-entrancy is their concern.
func (c *Clock) notify(now int64, fns []func(int64)) {
	for _, fn := range fns {
		fn(now)
	}
}

// Now returns the current logical time without advancing it.
func (c *Clock) Now() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.now == 0 {
		c.now = 1
	}
	return c.now
}

// Tick advances the clock by one unit and returns the new time. Experiments
// call Tick once per simulated event (query submission or tuple insertion)
// so every event has a distinct timestamp.
func (c *Clock) Tick() int64 {
	c.mu.Lock()
	if c.now == 0 {
		c.now = 1
	}
	c.now++
	now, fns := c.now, c.listeners
	c.mu.Unlock()
	c.notify(now, fns)
	return now
}

// Advance moves the clock forward by d units (d >= 0) and returns the new
// time. Window-based experiments advance the clock by a full window between
// batches.
func (c *Clock) Advance(d int64) int64 {
	if d < 0 {
		panic("sim: Advance with negative duration")
	}
	c.mu.Lock()
	if c.now == 0 {
		c.now = 1
	}
	c.now += d
	now, fns := c.now, c.listeners
	c.mu.Unlock()
	c.notify(now, fns)
	return now
}
