package engine

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// The tiers of a deliveredSet. recentSize is M, the most identities the recent
// tier holds; restartEvery how many entries a run's block holds; filterBits
// and filterProbes size a run's membership filter (about 2 % false
// positives); mergeFanIn how many runs of one level merge into one of the
// next; pageSize the size of the pages a run is written to.
const (
	recentSize   = 4096
	restartEvery = 32
	filterBits   = 8
	filterProbes = 5
	mergeFanIn   = 4
	pageSize     = 1 << 12
)

// recentMax is recentSize but where a test freezes the recent tier at small
// sizes: only _test.go files set it.
var recentMax = recentSize

// deliveredSet is the receiver-side dedupe record: a set of identities that
// only grows, kept in two tiers, as the log-structured merge tree keeps its
// (O'Neil et al., Acta Informatica 1996).
//
// The recent tier holds the newest identities, at most recentMax: each after
// its uvarint length on a page of arena, named by a 32-bit reference,
// page<<12 | offset, found by linear probing from its indexHash in a
// power-of-two table of references, at most 3/4 full; beside each reference
// a tag byte, 0 where the slot is empty, keeps 7 bits of the hash, so a probe
// reads the arena only where the tags agree. When it holds recentMax, the
// tier freezes: its identities, sorted bytewise, become a run, the table is
// emptied in place and the arena's pages become spare.
//
// The settled tier is those runs, oldest first, each immutable and prefix-
// coded (run). Four runs of one level merge into one of the next, so a set of
// n identities keeps at most 3 runs a level, about log4(n/recentMax) levels.
// A merge writes to the pages its inputs free as it reads them (spare), so
// the runs take about what they hold. In a run an identity costs its bytes
// less what it shares with the one before it, a header byte, a byte of
// filter and an eighth of a byte of block index: 10.6 B for the 10.5 B
// identities of TestDeliveredSetBytesPerIdentity, 11.4 B with the recent
// tier. add panics past 2^20 pages in the arena or in one run (4 GiB) rather
// than wrap a reference. The zero value is an empty set.
//
// The engine's set holds typed identities, uvarint(ref) ‖ appendMatch: each
// query key is said once, in keys, and an identity names it by its index
// there, which refs finds.
type deliveredSet struct {
	arena [][]byte
	slots []uint32
	tags  []uint8
	rn    int // identities in the recent tier
	runs  []*run
	spare [][]byte // empty pages of pageSize bytes, for the arena and runs
	n     int
	refs  map[string]uint64 // query key -> its index in keys
	keys  []string
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
	if found || s.settled(id, h) {
		return false
	}
	if 4*(s.rn+1) > 3*len(s.slots) {
		s.grow()
		i, _ = s.probe(id, h)
	}
	s.slots[i] = s.keep(id)
	s.tags[i] = tagOf(h)
	s.rn++
	s.n++
	if s.rn >= recentMax {
		s.freeze()
	}
	return true
}

func (s *deliveredSet) has(id []byte) bool {
	h := indexHash(id)
	_, found := s.probe(id, h)
	return found || s.settled(id, h)
}

// settled reports whether a run holds id, whose indexHash is h: the newest
// run first, as a repeat is most likely of a recent match.
func (s *deliveredSet) settled(id []byte, h uint64) bool {
	for i := len(s.runs) - 1; i >= 0; i-- {
		if s.runs[i].has(id, h) {
			return true
		}
	}
	return false
}

// probe returns the slot of the recent tier holding id, or the empty slot
// where it would go.
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

// keep appends id to the arena and returns its reference.
func (s *deliveredSet) keep(id []byte) uint32 {
	var lb [binary.MaxVarintLen64]byte
	need := binary.PutUvarint(lb[:], uint64(len(id))) + len(id)
	last := len(s.arena) - 1
	if last < 0 || cap(s.arena[last])-len(s.arena[last]) < need {
		if last++; last == 1<<20 {
			panic("engine: the delivered set's recent tier is full")
		}
		s.arena = append(s.arena, s.page(need))
	}
	p := s.arena[last]
	s.arena[last] = append(append(p, lb[:need-len(id)]...), id...)
	return uint32(last)<<12 | uint32(len(p))
}

// tagOf is the tag of hash h: its top 7 bits, and a bit that no empty slot's
// tag has.
func tagOf(h uint64) uint8 { return uint8(h>>57) | 0x80 }

// at returns the identity of the recent tier at offset ref.
func (s *deliveredSet) at(ref uint32) []byte {
	c := s.arena[ref>>12][ref&0xfff:]
	n, w := binary.Uvarint(c)
	return c[w : w+int(n)]
}

// freeze writes the recent tier's identities, sorted, as a run of level 0,
// empties the tier in place, and merges what that completes.
func (s *deliveredSet) freeze() {
	refs := s.slots[:0] // the slots are compacted in place: ref j lands at or before slot j
	for j, ref := range s.slots {
		if s.tags[j] != 0 {
			refs = append(refs, ref)
		}
	}
	// Sort words that hold an identity's first 5 bytes above its index in
	// refs (recentMax is far below 2^24), then each group of equal heads
	// on the whole identity.
	const idx = 1<<24 - 1
	order := make([]uint64, len(refs))
	for i, ref := range refs {
		var head [8]byte
		copy(head[:5], s.at(ref))
		order[i] = binary.BigEndian.Uint64(head[:]) | uint64(i)
	}
	slices.Sort(order)
	for i := 0; i < len(order); {
		j := i + 1
		for j < len(order) && order[j]&^idx == order[i]&^idx {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(order[i:j], func(a, b uint64) int { return bytes.Compare(s.at(refs[a&idx]), s.at(refs[b&idx])) })
		}
		i = j
	}
	w := s.newRun(len(refs), 0)
	for _, o := range order {
		w.put(s.at(refs[o&idx]))
	}
	s.runs = append(s.runs, w.r)
	clear(s.tags)
	for i, p := range s.arena {
		if cap(p) == pageSize {
			s.spare = append(s.spare, p[:0])
		}
		s.arena[i] = nil
	}
	s.arena, s.rn = s.arena[:0], 0
	for len(s.runs) >= mergeFanIn {
		k := len(s.runs) - mergeFanIn
		if s.runs[k].level != s.runs[len(s.runs)-1].level {
			return
		}
		merged := s.merge(s.runs[k:])
		clear(s.runs[k:])
		s.runs = append(s.runs[:k], merged)
	}
}

// merge writes the identities of runs, all of one level, as one run of the
// next, handing each page of theirs to spare once it has been read.
func (s *deliveredSet) merge(runs []*run) *run {
	n := 0
	its := make([]runIter, 0, len(runs))
	for _, r := range runs {
		n += r.n
		if it := (runIter{r: r, free: &s.spare}); it.next() {
			its = append(its, it)
		}
	}
	w := s.newRun(n, runs[0].level+1)
	for len(its) > 0 {
		least := 0
		for i := range its {
			if bytes.Compare(its[i].key, its[least].key) < 0 {
				least = i
			}
		}
		w.put(its[least].key)
		if !its[least].next() {
			its = slices.Delete(its, least, least+1)
		}
	}
	return w.r
}

// newRun returns a writer of a run of level that will hold n identities.
func (s *deliveredSet) newRun(n, level int) *runWriter {
	r := &run{level: level, blocks: make([]uint32, 0, n/restartEvery+1), filter: make([]uint64, (n*filterBits+511)/512*8)}
	return &runWriter{s: s, r: r}
}

// each calls fn with every identity: each run's in order, oldest run first,
// then the recent tier's in the order they were added. id is valid only
// until fn returns.
func (s *deliveredSet) each(fn func(id []byte)) {
	for _, r := range s.runs {
		for it := (runIter{r: r}); it.next(); {
			fn(it.key)
		}
	}
	for _, c := range s.arena {
		for len(c) > 0 {
			n, w := binary.Uvarint(c)
			fn(c[w : w+int(n)])
			c = c[w+int(n):]
		}
	}
}

// A run is an immutable, sorted list of identities, written to pages of
// pageSize bytes (an identity that outgrows one gets a page of its own, and
// no entry straddles two). Each entry is one header byte, the length of the
// prefix it shares with the identity before it in its high nibble and that
// of the rest, its suffix, in its low, either a nibble of 15 meaning that
// much more follows as a uvarint (prefix first), and then the suffix. Every
// restartEvery entries, and at the top of every page, a block starts with an
// entry that shares nothing; blocks names where each starts, so a lookup
// binary-searches the blocks' first identities and decodes one block. A
// membership filter of filterBits bits an identity, read before that, keeps a
// lookup of an identity the run lacks from reading the run at all, but for
// about 2 % of them.
type run struct {
	pages  [][]byte
	blocks []uint32 // page<<12 | offset of each block's first entry
	filter []uint64
	level  int // the merges behind it: it holds recentMax·mergeFanIn^level identities
	n      int
}

// has reports whether r holds id, whose indexHash is h.
func (r *run) has(id []byte, h uint64) bool {
	if !r.bloom(h, false) {
		return false
	}
	lo, hi := 0, len(r.blocks) // the first block whose first identity is past id
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if _, first, _ := decodeEntry(r.at(r.blocks[mid])); bytes.Compare(first, id) <= 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == 0 {
		return false
	}
	p := r.at(r.blocks[lo-1])
	var buf [keyScratch]byte
	key := buf[:0]
	for range restartEvery {
		shared, suffix, rest := decodeEntry(p)
		key = append(key[:shared], suffix...)
		switch c := bytes.Compare(key, id); {
		case c == 0:
			return true
		case c > 0 || len(rest) == 0:
			return false
		}
		p = rest
	}
	return false
}

// at returns what r holds from ref on, to the end of ref's page.
func (r *run) at(ref uint32) []byte { return r.pages[ref>>12][ref&0xfff:] }

// decodeEntry decodes the entry p starts with: the length of the prefix it
// shares with the identity before it, its suffix, and the bytes past it.
func decodeEntry(p []byte) (shared int, suffix, rest []byte) {
	h := p[0]
	p = p[1:]
	shared, n := int(h>>4), int(h&15)
	if shared == 15 {
		v, w := binary.Uvarint(p)
		shared += int(v)
		p = p[w:]
	}
	if n == 15 {
		v, w := binary.Uvarint(p)
		n += int(v)
		p = p[w:]
	}
	return shared, p[:n], p[n:]
}

// bloom sets, or with set false tests, the filterProbes bits of r's filter
// that stand for the identity whose indexHash is h, and reports whether all
// were set. h, mixed (splitmix64's finalizer), picks one 512-bit block, a
// cache line, by its high bits and the bits in it by its low 45.
func (r *run) bloom(h uint64, set bool) bool {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	b, _ := bits.Mul64(h, uint64(len(r.filter)/8))
	block := r.filter[b*8 : b*8+8]
	for range filterProbes {
		word, bit := &block[h>>6&7], uint64(1)<<(h&63)
		switch {
		case set:
			*word |= bit
		case *word&bit == 0:
			return false
		}
		h >>= 9
	}
	return true
}

// A runWriter appends identities, in order, to a run.
type runWriter struct {
	s     *deliveredSet // whose spare pages it writes to
	r     *run
	prev  []byte // the identity put last
	block int    // the entries of the block being written
}

// put appends id, which sorts after every identity put before it.
func (w *runWriter) put(id []byte) {
	r := w.r
	if w.block == restartEvery {
		w.block = 0
	}
	shared := 0
	if w.block > 0 {
		shared = commonPrefix(w.prev, id)
	}
	var hb [1 + 2*binary.MaxVarintLen64]byte
	head := appendEntryHead(hb[:0], shared, len(id)-shared)
	last := len(r.pages) - 1
	if last < 0 || cap(r.pages[last])-len(r.pages[last]) < len(head)+len(id)-shared {
		shared, w.block = 0, 0
		head = appendEntryHead(hb[:0], 0, len(id))
		if last++; last == 1<<20 {
			panic("engine: a run of the delivered set is full")
		}
		r.pages = append(r.pages, w.s.page(len(head)+len(id)))
	}
	p := r.pages[last]
	if w.block == 0 {
		r.blocks = append(r.blocks, uint32(last)<<12|uint32(len(p)))
	}
	r.pages[last] = append(append(p, head...), id[shared:]...)
	w.block++
	r.n++
	w.prev = append(w.prev[:0], id...)
	r.bloom(indexHash(id), true)
}

// appendEntryHead appends the header of an entry that shares shared bytes
// with the identity before it and has a suffix of n.
func appendEntryHead(b []byte, shared, n int) []byte {
	hs, hn := min(shared, 15), min(n, 15)
	b = append(b, byte(hs<<4|hn))
	if hs == 15 {
		b = binary.AppendUvarint(b, uint64(shared-15))
	}
	if hn == 15 {
		b = binary.AppendUvarint(b, uint64(n-15))
	}
	return b
}

func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	for i := range n {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// page returns an empty page that takes need bytes: a spare one where a page
// of pageSize does.
func (s *deliveredSet) page(need int) []byte {
	if need > pageSize {
		return make([]byte, 0, need)
	}
	if n := len(s.spare); n > 0 {
		p := s.spare[n-1]
		s.spare = s.spare[:n-1]
		return p
	}
	return make([]byte, 0, pageSize)
}

// A runIter reads a run's identities in order.
type runIter struct {
	r    *run
	page int       // the next page to read
	p    []byte    // what is left of the page being read
	key  []byte    // the identity read last
	free *[][]byte // where a page of pageSize goes once read, if anywhere
}

// next reads the next identity into key and reports whether there was one.
func (it *runIter) next() bool {
	for len(it.p) == 0 {
		if it.page > 0 && it.free != nil {
			if p := it.r.pages[it.page-1]; cap(p) == pageSize {
				*it.free = append(*it.free, p[:0])
			}
			it.r.pages[it.page-1] = nil
		}
		if it.page == len(it.r.pages) {
			return false
		}
		it.p = it.r.pages[it.page]
		it.page++
	}
	shared, suffix, rest := decodeEntry(it.p)
	it.key = append(it.key[:shared], suffix...)
	it.p = rest
	return true
}
