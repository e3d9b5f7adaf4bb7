package obs

import (
	"fmt"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("Counter not interned by name")
	}

	g := r.Gauge("g")
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
	if got := g.HighWater(); got != 7 {
		t.Fatalf("high-water = %d, want 7", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry // disabled layer
	c := r.Counter("x")
	g := r.Gauge("x")
	v := r.CounterVec("x")
	c.Inc()
	c.Add(5)
	g.Set(9)
	g.Add(1)
	v.Add("k", 2)
	v.With("k").Inc()
	if c.Value() != 0 || g.Value() != 0 || v.Total() != 0 {
		t.Fatal("nil handles must discard all updates")
	}
	if r.Snapshot() != nil {
		t.Fatal("nil registry snapshot must be nil")
	}
}

func TestCounterVecInterningAndSnapshot(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("msgs")
	v.Add("join", 3)
	v.Add("lookup", 1)
	join := v.With("join")
	join.Inc()
	if v.Value("join") != 4 || v.Value("lookup") != 1 || v.Value("absent") != 0 {
		t.Fatalf("per-label values wrong: %v", v.Snapshot())
	}
	if v.Total() != 5 {
		t.Fatalf("total = %d, want 5", v.Total())
	}
	snap := r.Snapshot()
	if snap["msgs{join}"] != 4 || snap["msgs.total"] != 5 {
		t.Fatalf("snapshot missing vec entries: %v", snap)
	}
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("c").Inc()
				r.CounterVec("v").Add("k", 1)
				r.Gauge("g").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("c").Value(); got != 8000 {
		t.Fatalf("concurrent counter = %d, want 8000", got)
	}
	if got := r.CounterVec("v").Total(); got != 8000 {
		t.Fatalf("concurrent vec total = %d, want 8000", got)
	}
}

// With, Value, Total and Snapshot read a family's label map without a lock
// while first uses copy it. Writers intern fresh labels and repeat known ones
// while readers read; every label must resolve to one counter, and the
// counts must be the adds made. Under -race this is where a read the
// published map does not cover shows.
func TestCounterVecReadsWhileLabelsIntern(t *testing.T) {
	const writers, labels, rounds = 4, 48, 50
	v := NewRegistry().CounterVec("v")
	got := make([][labels]*Counter, writers)
	var wg, readers sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				total := v.Total()
				var sum int64
				for _, n := range v.Snapshot() {
					sum += n
				}
				if total < 0 || sum < 0 || v.Value("l0") < 0 || total > writers*labels*rounds {
					t.Errorf("read total %d, snapshot sum %d", total, sum)
					return
				}
			}
		}()
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < rounds; round++ {
				for i := 0; i < labels; i++ {
					// Each writer walks the labels from its own start, so
					// first uses of a label race between writers.
					l := (i + w*labels/writers) % labels
					c := v.With(fmt.Sprintf("l%d", l))
					if got[w][l] == nil {
						got[w][l] = c
					} else if got[w][l] != c {
						t.Errorf("writer %d: label l%d resolved to two counters", w, l)
					}
					c.Inc()
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	for l := 0; l < labels; l++ {
		label := fmt.Sprintf("l%d", l)
		for w := 1; w < writers; w++ {
			if got[w][l] != got[0][l] {
				t.Fatalf("label %s resolved to two counters across writers", label)
			}
		}
		if v.With(label) != got[0][l] {
			t.Fatalf("label %s resolves to a counter no writer got", label)
		}
		if n := v.Value(label); n != writers*rounds {
			t.Fatalf("%s = %d, want %d", label, n, writers*rounds)
		}
	}
	if n := v.Total(); n != writers*labels*rounds {
		t.Fatalf("total = %d, want %d", n, writers*labels*rounds)
	}
	if len(v.Snapshot()) != labels {
		t.Fatalf("snapshot has %d labels, want %d", len(v.Snapshot()), labels)
	}
}

// A known label's With is a load and a map read: it allocates nothing.
func TestCounterVecWithAllocatesNothing(t *testing.T) {
	v := NewRegistry().CounterVec("v")
	v.Add("known", 1)
	if n := testing.AllocsPerRun(100, func() { v.With("known").Inc() }); n != 0 {
		t.Fatalf("With on a known label: %v allocations, want 0", n)
	}
}

// Reset empties the family; a label used after it is interned afresh.
func TestCounterVecReset(t *testing.T) {
	var v CounterVec
	old := v.With("k")
	old.Add(3)
	v.Reset()
	if v.Total() != 0 || v.Value("k") != 0 || len(v.Snapshot()) != 0 {
		t.Fatalf("after Reset: total %d, snapshot %v", v.Total(), v.Snapshot())
	}
	if v.With("k") == old {
		t.Fatal("Reset kept the old counter reachable")
	}
}

// The ≤5%-overhead acceptance criterion rides on these two: the disabled
// path must be a branch, the enabled path a map read + atomic add.

func BenchmarkCounterVecDisabled(b *testing.B) {
	var r *Registry
	v := r.CounterVec("msgs")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v.Add("join", 1)
	}
}

func BenchmarkCounterVecEnabled(b *testing.B) {
	v := NewRegistry().CounterVec("msgs")
	v.Add("join", 1) // intern outside the loop timing? keep inside: steady state
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Add("join", 1)
	}
}
