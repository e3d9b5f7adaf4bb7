package engine

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strconv"
	"strings"
)

// deliveryKey is the full match identity of a notification, as text:
// projected content — which leads with Key(q), subscriber#seq, so the
// subscriber is said — and the publication times of the matched pair. Two
// distinct tuple pairs can project to equal values, so the content key alone
// is NOT an identity. Nor are the times alone: each process ticks its own
// logical clock, so a publication time is unique within its process only, and
// two matches of tuples published in different processes may share both
// times; then only their projected values tell them apart. Snapshots persist
// these strings; the engine keeps the binary form (appendIdentity).
func deliveryKey(n Notification) string {
	var buf [keyScratch]byte
	return identityKey(n.appendIdentity(buf[:0]))
}

// appendIdentity appends n's identity in the delivered set: varint(LeftPubT)
// ‖ varint(RightPubT) ‖ its content key. A varint delimits itself, so the
// identity says exactly what deliveryKey says, in fewer bytes.
func (n Notification) appendIdentity(b []byte) []byte {
	b = binary.AppendVarint(b, n.LeftPubT)
	b = binary.AppendVarint(b, n.RightPubT)
	return n.appendContentKey(b)
}

// identityKey renders an identity as its deliveryKey: the content key, then
// the two times as '|'-separated decimal fields.
func identityKey(id []byte) string {
	left, l := binary.Varint(id)
	right, r := binary.Varint(id[l:])
	var buf [keyScratch]byte
	b := append(buf[:0], id[l+r:]...)
	b = append(b, '|')
	b = strconv.AppendInt(b, left, 10)
	b = append(b, '|')
	return string(strconv.AppendInt(b, right, 10))
}

// appendKeyIdentity appends the identity whose deliveryKey is key. The times
// are its last two '|'-separated fields, which never hold a '|' themselves,
// and the content key is what precedes them; a key that does not end in two
// integer fields is refused.
func appendKeyIdentity(b []byte, key string) ([]byte, error) {
	j := strings.LastIndexByte(key, '|')
	if i := strings.LastIndexByte(key[:max(j, 0)], '|'); i >= 0 {
		left, errL := strconv.ParseInt(key[i+1:j], 10, 64)
		right, errR := strconv.ParseInt(key[j+1:], 10, 64)
		if errL == nil && errR == nil {
			b = binary.AppendVarint(b, left)
			b = binary.AppendVarint(b, right)
			return append(b, key[:i]...), nil
		}
	}
	return nil, fmt.Errorf("delivered entry %.80q does not end in two integer fields", key)
}

// identChunkSize is the size of the chunks a deliveredSet appends its
// identities to, and identChunksMax how many chunks a 32-bit reference can
// name: 4 GiB of identities.
const (
	identChunkSize = 1 << 16
	identChunksMax = 1 << 16
)

// deliveredSet is the receiver-side dedupe record: a set of identities that
// only grows. Each identity is appended, after its uvarint length, to an
// append-only chunk of identChunkSize bytes (one longer than that gets a chunk
// of its own), and is named by a 32-bit reference, chunk<<16 | offset. A
// power-of-two table of references, at most 3/4 full, finds an identity by
// linear probing from its indexHash; beside each reference a tag byte, 0 where
// the slot is empty, keeps 7 bits of the hash, so a probe reads the chunks
// only where the tags agree. The table is rebuilt from the chunks when it
// doubles. So an identity costs its bytes, a byte or two of length and 7 to 13
// bytes of table. add panics past identChunksMax chunks rather than wrap a
// reference. The zero value is an empty set.
type deliveredSet struct {
	chunks [][]byte
	slots  []uint32
	tags   []uint8
	n      int
}

func (s *deliveredSet) len() int { return s.n }

// add puts id in the set, copying it, and reports whether it was absent.
func (s *deliveredSet) add(id []byte) bool {
	h := indexHash(id)
	i, found := s.probe(id, h)
	if found {
		return false
	}
	if 4*(s.n+1) > 3*len(s.slots) {
		s.grow()
		i, _ = s.probe(id, h)
	}
	s.slots[i] = s.keep(id)
	s.tags[i] = tagOf(h)
	s.n++
	return true
}

// probe returns the slot holding id, or the empty slot where it would go.
func (s *deliveredSet) probe(id []byte, h uint64) (int, bool) {
	if len(s.slots) == 0 {
		return 0, false
	}
	mask := uint64(len(s.slots) - 1)
	tag := tagOf(h)
	for i := h & mask; ; i = (i + 1) & mask {
		switch t := s.tags[i]; {
		case t == 0:
			return int(i), false
		case t == tag && bytes.Equal(s.at(s.slots[i]), id):
			return int(i), true
		}
	}
}

// grow doubles the table and re-slots every identity, hashing it in place.
func (s *deliveredSet) grow() {
	old, oldTags := s.slots, s.tags
	s.slots = make([]uint32, max(2*len(old), 64))
	s.tags = make([]uint8, len(s.slots))
	mask := uint64(len(s.slots) - 1)
	for j, ref := range old {
		if oldTags[j] != 0 {
			h := indexHash(s.at(ref))
			i := h & mask
			for s.tags[i] != 0 {
				i = (i + 1) & mask
			}
			s.slots[i], s.tags[i] = ref, tagOf(h)
		}
	}
}

// keep appends id to the chunks and returns its reference.
func (s *deliveredSet) keep(id []byte) uint32 {
	var lb [binary.MaxVarintLen64]byte
	need := binary.PutUvarint(lb[:], uint64(len(id))) + len(id)
	last := len(s.chunks) - 1
	if last < 0 || cap(s.chunks[last])-len(s.chunks[last]) < need {
		if len(s.chunks) == identChunksMax {
			panic("engine: the delivered set is full")
		}
		s.chunks = append(s.chunks, make([]byte, 0, max(identChunkSize, need)))
		last++
	}
	c := s.chunks[last]
	ref := uint32(last)<<16 | uint32(len(c))
	c = binary.AppendUvarint(c, uint64(len(id)))
	s.chunks[last] = append(c, id...)
	return ref
}

// tagOf is the tag of hash h: its top 7 bits, and a bit that no empty slot's
// tag has.
func tagOf(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// at returns the identity ref names.
func (s *deliveredSet) at(ref uint32) []byte {
	c := s.chunks[ref>>16][ref&0xffff:]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// each calls fn with every identity, in the order they were added.
func (s *deliveredSet) each(fn func(id []byte)) {
	for _, c := range s.chunks {
		for len(c) > 0 {
			n, w := binary.Uvarint(c)
			fn(c[w : w+int(n)])
			c = c[w+int(n):]
		}
	}
}
