// Package id implements the m-bit circular identifier space used by the
// Chord protocol (Stoica et al.) as described in Chapter 2 of the paper.
//
// Identifiers are 160-bit values produced by SHA-1 (m = 160), ordered on a
// ring modulo 2^160. Both overlay nodes and data items (queries and tuples)
// are mapped onto the same ring: a key k is stored at Successor(Hash(k)),
// the first node whose identifier is equal to or follows Hash(k) clockwise.
package id

import (
	"crypto/sha1"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/bits"
)

// Bits is the size m of the identifier space. The paper (and Chord) use
// SHA-1, so m = 160 and the ring is ordered modulo 2^160.
const Bits = 160

// bytesLen is the identifier length in bytes (160 bits / 8).
const bytesLen = Bits / 8

// ID is a point on the identifier circle. IDs are values and may be used as
// map keys. The zero ID is identifier 0, a valid ring position.
type ID [bytesLen]byte

// Hash maps an arbitrary key string onto the ring using SHA-1, exactly as
// consistent hashing prescribes in Section 2.2. All identifiers in the
// system — node identifiers, AIndex = Hash(R+A) and VIndex = Hash(R+A+v) —
// are produced through this function.
func Hash(key string) ID {
	return ID(sha1.Sum([]byte(key)))
}

// HashBytes is Hash for a byte-slice key.
func HashBytes(key []byte) ID {
	return ID(sha1.Sum(key))
}

// FromUint64 places v on the ring as the identifier with value v. It is a
// testing convenience: production identifiers always come from Hash.
func FromUint64(v uint64) ID {
	var x ID
	for i := 0; i < 8; i++ {
		x[bytesLen-1-i] = byte(v >> (8 * i))
	}
	return x
}

// String renders the identifier as 40 hexadecimal digits.
func (x ID) String() string { return hex.EncodeToString(x[:]) }

// Short renders the leading 4 bytes, a human-friendly ring position for logs.
func (x ID) Short() string { return hex.EncodeToString(x[:4]) }

// Cmp compares two identifiers as 160-bit unsigned integers, returning
// -1, 0, or +1. This is the linear order; ring order is expressed through
// Between and its variants.
func (x ID) Cmp(y ID) int {
	for i := 0; i < bytesLen; i++ {
		switch {
		case x[i] < y[i]:
			return -1
		case x[i] > y[i]:
			return 1
		}
	}
	return 0
}

// BitLen returns the number of bits needed to represent x as an unsigned
// integer: 0 for identifier 0, otherwise the b with 2^(b-1) <= x < 2^b.
func (x ID) BitLen() int {
	for i, b := range x {
		if b != 0 {
			return (bytesLen-i-1)*8 + bits.Len8(b)
		}
	}
	return 0
}

// Less reports whether x precedes y in the linear 160-bit order.
func (x ID) Less(y ID) bool { return x.Cmp(y) < 0 }

// Equal reports whether x and y are the same ring position.
func (x ID) Equal(y ID) bool { return x == y }

// Add returns x + y modulo 2^160.
func (x ID) Add(y ID) ID {
	var out ID
	var carry uint16
	for i := bytesLen - 1; i >= 0; i-- {
		s := uint16(x[i]) + uint16(y[i]) + carry
		out[i] = byte(s)
		carry = s >> 8
	}
	return out
}

// Sub returns x - y modulo 2^160.
func (x ID) Sub(y ID) ID {
	var out ID
	var borrow int16
	for i := bytesLen - 1; i >= 0; i-- {
		d := int16(x[i]) - int16(y[i]) - borrow
		if d < 0 {
			d += 256
			borrow = 1
		} else {
			borrow = 0
		}
		out[i] = byte(d)
	}
	return out
}

// AddPow2 returns x + 2^k modulo 2^160, for 0 <= k < Bits. It computes the
// start of finger-table entry k+1: finger j of node n points at
// Successor(id(n) + 2^(j-1)).
func (x ID) AddPow2(k uint) ID {
	if k >= Bits {
		panic(fmt.Sprintf("id: AddPow2 exponent %d out of range [0,%d)", k, Bits))
	}
	var p ID
	byteIdx := bytesLen - 1 - int(k/8)
	p[byteIdx] = 1 << (k % 8)
	return x.Add(p)
}

// Between reports whether x lies in the open ring interval (a, b),
// travelling clockwise from a to b. When a == b the interval is the whole
// ring minus the single point a, matching Chord's convention.
func Between(x, a, b ID) bool {
	switch a.Cmp(b) {
	case -1: // no wrap
		return a.Less(x) && x.Less(b)
	case 1: // wraps through zero
		return a.Less(x) || x.Less(b)
	default: // a == b: everything except a itself
		return !x.Equal(a)
	}
}

// BetweenRightIncl reports whether x lies in the half-open ring interval
// (a, b]. This is the "is b's predecessor region" test used to decide key
// ownership: key k belongs to node n iff k ∈ (pred(n), n].
func BetweenRightIncl(x, a, b ID) bool {
	return x.Equal(b) || Between(x, a, b)
}

// BetweenLeftIncl reports whether x lies in the half-open ring interval [a, b).
func BetweenLeftIncl(x, a, b ID) bool {
	return x.Equal(a) || Between(x, a, b)
}

// Head returns x's first 64 bits, big-endian: its position on the ring to
// within 2^96. Identifiers whose heads differ order as their heads do.
func (x ID) Head() uint64 { return binary.BigEndian.Uint64(x[:8]) }

// BetweenHeads decides Between(x, a, b) from the heads of the three
// identifiers, and reports ok false when two of the heads tie: then only the
// full identifiers can. Pairwise-distinct heads order as their identifiers do,
// and from a the ring of heads turns where the ring of identifiers does, so the
// clockwise distance modulo 2^64 settles it. BetweenRightIncl agrees: its one
// extra point, x == b, ties two heads.
func BetweenHeads(xh, ah, bh uint64) (in, ok bool) {
	if xh == ah || xh == bh || ah == bh {
		return false, false
	}
	return xh-ah < bh-ah, true
}

// Distance returns the clockwise distance from a to b on the ring, i.e. the
// number of identifier positions travelled going from a forward to b.
func Distance(a, b ID) ID { return b.Sub(a) }
