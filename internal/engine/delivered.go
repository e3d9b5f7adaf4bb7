package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"cqjoin/internal/relation"
)

// deliveryKey is the full match identity of a notification, as text:
// projected content — which leads with Key(q), subscriber#seq, so the
// subscriber is said — and the publication times of the matched pair. Two
// distinct tuple pairs can project to equal values, so the content key alone
// is NOT an identity. Nor are the times alone: each process ticks its own
// logical clock, so a publication time is unique within its process only, and
// two matches of tuples published in different processes may share both
// times; then only their projected values tell them apart. The text says a
// value without its kind or its length, so S("1") and N(1), or ("a|b", "c")
// and ("a", "b|c"), share a key: the oracle compares runs by it, and earlier
// builds persisted it (snapMetaMsg.Delivered), but the delivered set keeps
// the typed identity (deliveredSet.identity).
func deliveryKey(n Notification) string {
	var buf [keyScratch]byte
	return textIdentityKey(n.appendTextIdentity(buf[:0]))
}

// appendTextIdentity appends the binary form of n's deliveryKey:
// varint(LeftPubT) ‖ varint(RightPubT) ‖ its content key. The legacy set
// holds a parent snapshot's Delivered entries in this form.
func (n Notification) appendTextIdentity(b []byte) []byte {
	b = binary.AppendVarint(b, n.LeftPubT)
	b = binary.AppendVarint(b, n.RightPubT)
	return n.appendContentKey(b)
}

// textIdentityKey renders a text identity as its deliveryKey: the content
// key, then the two times as '|'-separated decimal fields.
func textIdentityKey(id []byte) string {
	left, l := binary.Varint(id)
	right, r := binary.Varint(id[l:])
	var buf [keyScratch]byte
	b := append(buf[:0], id[l+r:]...)
	b = append(b, '|')
	b = strconv.AppendInt(b, left, 10)
	b = append(b, '|')
	return string(strconv.AppendInt(b, right, 10))
}

// appendKeyIdentity appends the text identity whose deliveryKey is key. The
// times are its last two '|'-separated fields, which never hold a '|'
// themselves, and the content key is what precedes them; a key that does not
// end in two integer fields is refused.
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

// appendMatch appends what n's typed identity says past its query:
// varint(LeftPubT) ‖ varint(RightPubT) ‖ each value with its kind.
func (n Notification) appendMatch(b []byte) []byte {
	b = binary.AppendVarint(b, n.LeftPubT)
	b = binary.AppendVarint(b, n.RightPubT)
	for _, v := range n.Values {
		b = appendTypedValue(b, v)
	}
	return b
}

// appendTypedValue appends v behind one uvarint header: a string is len<<2|0
// and its bytes; an integral number whose zigzag fits in 62 bits is
// zigzag<<2|1 alone (-0 is not integral here: it keeps its sign); any other
// number is 2 and its eight float bytes. So equal bytes mean equal kinds and
// contents, and a value ends where its header says.
func appendTypedValue(b []byte, v relation.Value) []byte {
	if v.Kind() == relation.String {
		b = binary.AppendUvarint(b, uint64(len(v.Str()))<<2)
		return append(b, v.Str()...)
	}
	f := v.Num()
	if f >= -1<<61 && f < 1<<61 && f == math.Trunc(f) && !(f == 0 && math.Signbit(f)) {
		i := int64(f)
		return binary.AppendUvarint(b, uint64(i<<1^i>>63)<<2|1)
	}
	b = binary.AppendUvarint(b, 2)
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

// parseMatch reads what appendMatch wrote. It refuses bytes appendMatch would
// not have written, so an identity read from a snapshot is one a notification
// would have.
func parseMatch(b []byte) (left, right int64, vals []relation.Value, err error) {
	in := b
	left, l := binary.Varint(b)
	if l <= 0 {
		return 0, 0, nil, errors.New("no left time")
	}
	right, r := binary.Varint(b[l:])
	if r <= 0 {
		return 0, 0, nil, errors.New("no right time")
	}
	for b = b[l+r:]; len(b) > 0; {
		h, w := binary.Uvarint(b)
		if w <= 0 {
			return 0, 0, nil, errors.New("a value has no header")
		}
		b = b[w:]
		switch {
		case h&3 == 0 && h>>2 <= uint64(len(b)):
			vals = append(vals, relation.S(string(b[:h>>2])))
			b = b[h>>2:]
		case h&3 == 1:
			vals = append(vals, relation.N(float64(int64(h>>3)^-int64(h>>2&1))))
		case h == 2 && len(b) >= 8:
			vals = append(vals, relation.N(math.Float64frombits(binary.LittleEndian.Uint64(b))))
			b = b[8:]
		default:
			return 0, 0, nil, fmt.Errorf("value header %d", h)
		}
	}
	n := Notification{LeftPubT: left, RightPubT: right, Values: vals}
	var buf [keyScratch]byte
	if !bytes.Equal(n.appendMatch(buf[:0]), in) {
		return 0, 0, nil, errors.New("not as a notification says it")
	}
	return left, right, vals, nil
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
//
// The engine's set holds typed identities, uvarint(ref) ‖ appendMatch: each
// query key is said once, in keys, and an identity names it by its index
// there, which refs finds.
type deliveredSet struct {
	chunks [][]byte
	slots  []uint32
	tags   []uint8
	n      int
	refs   map[string]uint64 // query key -> its index in keys
	keys   []string
}

// identity appends n's typed identity to b, giving its query key a ref if it
// has none.
func (s *deliveredSet) identity(b []byte, n Notification) []byte {
	return n.appendMatch(binary.AppendUvarint(b, s.ref(n.QueryKey)))
}

func (s *deliveredSet) ref(key string) uint64 {
	ref, ok := s.refs[key]
	if !ok {
		if s.refs == nil {
			s.refs = make(map[string]uint64)
		}
		ref = uint64(len(s.keys))
		key = strings.Clone(key)
		s.keys = append(s.keys, key)
		s.refs[key] = ref
	}
	return ref
}

// spell returns the typed identity id with its query key written out in
// place of its ref: a wire string, then the rest as it is. A snapshot says
// an identity so (snapMetaMsg.Identities), with no table of refs.
func (s *deliveredSet) spell(id []byte) string {
	ref, w := binary.Uvarint(id)
	key := s.keys[ref]
	b := make([]byte, 0, binary.MaxVarintLen64+len(key)+len(id)-w)
	b = binary.AppendUvarint(b, uint64(len(key)))
	b = append(b, key...)
	return string(append(b, id[w:]...))
}

// render returns the deliveryKey of the notification whose typed identity is
// id, its query key read from keys.
func (s *deliveredSet) render(id []byte) string {
	ref, w := binary.Uvarint(id)
	left, right, vals, _ := parseMatch(id[w:]) // identity or addSpelled wrote it
	return deliveryKey(Notification{QueryKey: s.keys[ref], Values: vals, LeftPubT: left, RightPubT: right})
}

// addSpelled adds the identity spell wrote as spelled. What no
// notification's identity spells is refused.
func (s *deliveredSet) addSpelled(spelled string) error {
	b := []byte(spelled)
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return fmt.Errorf("delivered identity %.80q names no query", spelled)
	}
	key, match := string(b[w:w+int(n)]), b[w+int(n):]
	if _, _, _, err := parseMatch(match); err != nil {
		return fmt.Errorf("delivered identity %.80q: %v", spelled, err)
	}
	var buf [keyScratch]byte
	s.add(append(binary.AppendUvarint(buf[:0], s.ref(key)), match...))
	return nil
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

func (s *deliveredSet) has(id []byte) bool {
	_, found := s.probe(id, indexHash(id))
	return found
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
