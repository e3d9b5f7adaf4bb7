package id

import (
	"crypto/sha1"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHashMatchesSHA1(t *testing.T) {
	want := sha1.Sum([]byte("Document+AuthorId"))
	got := Hash("Document+AuthorId")
	if got != ID(want) {
		t.Fatalf("Hash mismatch: got %s want %x", got, want)
	}
}

func TestFromUint64(t *testing.T) {
	cases := []struct {
		v    uint64
		last byte
	}{
		{0, 0},
		{1, 1},
		{255, 255},
		{256, 0},
	}
	for _, c := range cases {
		x := FromUint64(c.v)
		if x[bytesLen-1] != c.last {
			t.Errorf("FromUint64(%d): last byte %d, want %d", c.v, x[bytesLen-1], c.last)
		}
	}
	if FromUint64(256)[bytesLen-2] != 1 {
		t.Errorf("FromUint64(256): second-to-last byte not 1")
	}
}

func TestCmpOrdering(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 {
		t.Fatal("Cmp misordered small values")
	}
	if !a.Less(b) || b.Less(a) {
		t.Fatal("Less inconsistent with Cmp")
	}
	if !a.Equal(a) || a.Equal(b) {
		t.Fatal("Equal inconsistent")
	}
}

func TestBitLen(t *testing.T) {
	if got := (ID{}).BitLen(); got != 0 {
		t.Fatalf("BitLen(0) = %d", got)
	}
	for k := uint(0); k < Bits; k++ {
		p := ID{}.AddPow2(k)
		if got := p.BitLen(); got != int(k)+1 {
			t.Fatalf("BitLen(2^%d) = %d", k, got)
		}
		if got := p.Sub(FromUint64(1)).BitLen(); got != int(k) {
			t.Fatalf("BitLen(2^%d - 1) = %d", k, got)
		}
	}
}

func TestAddSubInverse(t *testing.T) {
	f := func(av, bv uint64) bool {
		a, b := FromUint64(av), FromUint64(bv)
		return a.Add(b).Sub(b) == a && a.Sub(b).Add(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddSubInverseHashed(t *testing.T) {
	// The same inverse property on identifiers spread over the full ring.
	f := func(s1, s2 string) bool {
		a, b := Hash(s1), Hash(s2)
		return a.Add(b).Sub(b) == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAddCarryPropagation(t *testing.T) {
	var allFF ID
	for i := range allFF {
		allFF[i] = 0xff
	}
	one := FromUint64(1)
	if got := allFF.Add(one); got != (ID{}) {
		t.Fatalf("(2^160-1)+1 = %s, want 0", got)
	}
	if got := (ID{}).Sub(one); got != allFF {
		t.Fatalf("0-1 = %s, want 2^160-1", got)
	}
}

func TestAddPow2(t *testing.T) {
	x := FromUint64(0)
	if got, want := x.AddPow2(0), FromUint64(1); got != want {
		t.Fatalf("0+2^0 = %s", got)
	}
	if got, want := x.AddPow2(10), FromUint64(1024); got != want {
		t.Fatalf("0+2^10 = %s", got)
	}
	// 2^159 + 2^159 wraps to 0.
	top := (ID{}).AddPow2(159)
	if got := top.Add(top); got != (ID{}) {
		t.Fatalf("2^159+2^159 = %s, want 0", got)
	}
}

func TestAddPow2PanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddPow2(160) did not panic")
		}
	}()
	_ = (ID{}).AddPow2(Bits)
}

func TestBetweenNoWrap(t *testing.T) {
	a, b := FromUint64(10), FromUint64(20)
	if !Between(FromUint64(15), a, b) {
		t.Fatal("15 should be in (10,20)")
	}
	for _, v := range []uint64{10, 20, 5, 25} {
		if Between(FromUint64(v), a, b) {
			t.Fatalf("%d should not be in (10,20)", v)
		}
	}
}

func TestBetweenWrap(t *testing.T) {
	// Interval (2^160-5, 10) wraps through zero.
	a := (ID{}).Sub(FromUint64(5))
	b := FromUint64(10)
	for _, v := range []ID{(ID{}).Sub(FromUint64(1)), {}, FromUint64(5)} {
		if !Between(v, a, b) {
			t.Fatalf("%s should be in wrapped interval", v)
		}
	}
	if Between(FromUint64(10), a, b) || Between(FromUint64(100), a, b) {
		t.Fatal("right endpoint / outside point wrongly inside")
	}
}

func TestBetweenDegenerate(t *testing.T) {
	a := FromUint64(7)
	if Between(a, a, a) {
		t.Fatal("(a,a) must exclude a")
	}
	if !Between(FromUint64(8), a, a) {
		t.Fatal("(a,a) must contain every other point")
	}
}

func TestBetweenInclusiveVariants(t *testing.T) {
	a, b, mid := FromUint64(10), FromUint64(20), FromUint64(15)
	if !BetweenRightIncl(b, a, b) || BetweenRightIncl(a, a, b) || !BetweenRightIncl(mid, a, b) {
		t.Fatal("BetweenRightIncl endpoints wrong")
	}
	if !BetweenLeftIncl(a, a, b) || BetweenLeftIncl(b, a, b) || !BetweenLeftIncl(mid, a, b) {
		t.Fatal("BetweenLeftIncl endpoints wrong")
	}
}

// Property: for any three distinct points, exactly one of x∈(a,b] and x∈(b,a]
// holds — the two arcs partition the ring.
func TestArcsPartitionRing(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b, x := randID(rng), randID(rng), randID(rng)
		if a == b || a == x || b == x {
			continue
		}
		in1 := BetweenRightIncl(x, a, b)
		in2 := BetweenRightIncl(x, b, a)
		if in1 == in2 {
			t.Fatalf("arc partition violated: a=%s b=%s x=%s", a.Short(), b.Short(), x.Short())
		}
	}
}

// Property: Distance(a,b) + Distance(b,a) == 0 mod 2^160 for a != b.
func TestDistanceSymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a, b := randID(rng), randID(rng)
		sum := Distance(a, b).Add(Distance(b, a))
		if sum != (ID{}) {
			t.Fatalf("distance sum nonzero: a=%s b=%s", a.Short(), b.Short())
		}
	}
}

// at is the identifier whose head is head and whose last byte is tail.
func at(head uint64, tail byte) ID {
	var x ID
	binary.BigEndian.PutUint64(x[:8], head)
	x[bytesLen-1] = tail
	return x
}

// The head fast path answers only where its answer is Between's, and declines
// every case two tied heads leave open: a point in the same 2^96 as an end
// lies on either side of it, and an interval whose ends share a head is a
// sliver inside it or the whole ring less one.
func TestBetweenHeadsDeclinesTiedHeads(t *testing.T) {
	const top = ^uint64(0)
	cases := []struct {
		name     string
		x, a, b  ID
		ok, want bool
	}{
		{"inside, no wrap", at(5, 0), at(1, 0), at(9, 0), true, true},
		{"outside, no wrap", at(10, 0), at(1, 0), at(9, 0), true, false},
		{"inside, wrapping", at(1, 0), at(top-1, 0), at(3, 0), true, true},
		{"outside, wrapping", at(top-2, 0), at(top-1, 0), at(3, 0), true, false},
		{"x just past a", at(1, 2), at(1, 1), at(9, 0), false, true},
		{"x just before a", at(1, 0), at(1, 1), at(9, 0), false, false},
		{"x just before b", at(9, 0), at(1, 0), at(9, 1), false, true},
		{"x at b", at(9, 1), at(1, 0), at(9, 1), false, false},
		{"x just past b", at(9, 2), at(1, 0), at(9, 1), false, false},
		{"a, b one head: sliver", at(5, 0), at(1, 1), at(1, 2), false, false},
		{"a, b one head: all but a", at(5, 0), at(1, 2), at(1, 1), false, true},
		{"one head for all three", at(1, 2), at(1, 1), at(1, 3), false, true},
	}
	for _, c := range cases {
		if got := Between(c.x, c.a, c.b); got != c.want {
			t.Fatalf("%s: Between = %v, the case says %v", c.name, got, c.want)
		}
		in, ok := BetweenHeads(c.x.Head(), c.a.Head(), c.b.Head())
		if ok != c.ok || ok && (in != c.want || in != BetweenRightIncl(c.x, c.a, c.b)) {
			t.Errorf("%s: BetweenHeads = %v, %v; want ok %v and Between's %v", c.name, in, ok, c.ok, c.want)
		}
	}
	// Heads from a set of four tie often; every answer given must be exact.
	rng := rand.New(rand.NewSource(3))
	heads := []uint64{0, 1, top / 2, top}
	for i := 0; i < 20000; i++ {
		var p [3]ID
		for j := range p {
			p[j] = at(heads[rng.Intn(len(heads))], byte(rng.Intn(4)))
		}
		x, a, b := p[0], p[1], p[2]
		if in, ok := BetweenHeads(x.Head(), a.Head(), b.Head()); ok && (in != Between(x, a, b) || in != BetweenRightIncl(x, a, b)) {
			t.Fatalf("BetweenHeads(%s, %s, %s) = %v, Between says %v", x, a, b, in, Between(x, a, b))
		}
	}
}

func TestShortAndString(t *testing.T) {
	x := Hash("abc")
	if len(x.String()) != 40 {
		t.Fatalf("String length %d", len(x.String()))
	}
	if len(x.Short()) != 8 {
		t.Fatalf("Short length %d", len(x.Short()))
	}
}

func randID(rng *rand.Rand) ID {
	var x ID
	rng.Read(x[:])
	return x
}
