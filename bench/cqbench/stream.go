package main

import (
	"fmt"
	"io"
	"math/rand"
	"strings"
)

type opKind uint8

const (
	opPublish opKind = iota
	opSubscribe
	opUnsubscribe
)

// An op is one client operation. Its position in the stream is its id:
// publications carry it as the tuple's Id attribute, so a notification
// names the two publications that produced it.
type op struct {
	kind  opKind
	side  uint8 // publish: 0 = R, 1 = S
	node  int32 // ring position the op is issued from (unsubscribe: unused)
	pair  int32 // publish: relation pair
	keyA  int32 // publish: key id on attribute A
	keyB  int32 // publish: key id on attribute B
	pay   int32 // publish: payload on attribute C, never joined on
	query int32 // subscribe / unsubscribe: index into stream.queries
}

// A querySpec is one continuous query: pair's R and S joined on attr.
type querySpec struct {
	pair int
	attr int // 0 = A, 1 = B
	node int // subscriber's ring position
}

var attrNames = [...]string{"A", "B", "C"}

func (q querySpec) sql() string {
	r, s, a := relName(0, q.pair), relName(1, q.pair), attrNames[q.attr]
	return fmt.Sprintf("SELECT %s.Id, %s.Id FROM %s, %s WHERE %s.%s = %s.%s", r, s, r, s, r, a, s, a)
}

func relName(side uint8, pair int) string {
	if side == 0 {
		return fmt.Sprintf("R%d", pair)
	}
	return fmt.Sprintf("S%d", pair)
}

// primeRel is a relation no query mentions. Each daemon keeps its own
// logical clock, and a tuple only triggers queries inserted no later than
// its publication time, so set-up publishes a few primeRel tuples on each
// daemon to carry its clock past every standing query's insertion time.
const primeRel = "Prime"

// schemaDSL is the catalog in the daemon's -schema syntax.
func (s spec) schemaDSL() string {
	var b strings.Builder
	for p := 0; p < s.pairs; p++ {
		fmt.Fprintf(&b, "R%d(Id,A,B,C);S%d(Id,A,B,C);", p, p)
	}
	b.WriteString(primeRel + "(Id)")
	return b.String()
}

// A stream is everything a run feeds the system: the standing queries
// (queries[:standing], subscribed during set-up), the ops, and the queries
// that subscribe ops add later (queries[standing:]).
type stream struct {
	spec     spec
	standing int
	queries  []querySpec
	ops      []op
}

// generate draws the stream for seed. It is a pure function of its
// arguments.
func generate(s spec, seed int64, n int) *stream {
	rng := rand.New(rand.NewSource(seed))
	st := &stream{spec: s, standing: s.standing(), ops: make([]op, n)}
	// Standing subscribers sit evenly around the ring, rotated by the seed.
	// Drawn independently, the handful of subscribers of a TCP workload
	// would fall on one daemon or the other by luck, and the share of
	// notifications crossing the wire would differ from seed to seed by
	// more than any change to the program could move it.
	stride := float64(s.nodes) / float64(st.standing)
	rotate := rng.Float64() * stride
	for p := 0; p < s.pairs; p++ {
		for a := 0; a < s.conds; a++ {
			for k := 0; k < s.subsPerCond; k++ {
				// Consecutive queries share a condition; spacing them by
				// position spreads each condition's subscribers too.
				slot := k*s.pairs*s.conds + p*s.conds + a
				node := int(rotate+float64(slot)*stride) % s.nodes
				st.queries = append(st.queries, querySpec{pair: p, attr: a, node: node})
			}
		}
	}
	pubsOfPair := make([]int, s.pairs)
	key := func(p int) int32 {
		newest := pubsOfPair[p] / s.keyEvery
		span := s.keyWindow
		if newest+1 < span {
			span = newest + 1
		}
		return int32(newest - rng.Intn(span))
	}
	// Churn keeps the live set first-in first-out: each subscribe takes the
	// condition of the oldest live query, which the next unsubscribe then
	// retracts, so every condition keeps its subscriber count.
	oldest, subscribeNext := 0, true
	var hotSlots [10]bool
	var hotSide uint8
	for i := range st.ops {
		o := &st.ops[i]
		if s.churnEvery > 0 && i%s.churnEvery == s.churnEvery-1 {
			if subscribeNext {
				q := st.queries[oldest]
				q.node = rng.Intn(s.nodes)
				o.kind, o.node, o.query = opSubscribe, int32(q.node), int32(len(st.queries))
				st.queries = append(st.queries, q)
			} else {
				o.kind, o.query = opUnsubscribe, int32(oldest)
				oldest++
			}
			subscribeNext = !subscribeNext
			continue
		}
		p := rng.Intn(s.pairs)
		o.kind, o.pair = opPublish, int32(p)
		o.side = uint8(rng.Intn(2))
		o.node = int32(rng.Intn(s.nodes))
		o.keyA, o.keyB = key(p), key(p)
		if s.hotPerTen > 0 {
			// Exactly hotPerTen of every ten ops take the epoch's hot key,
			// alternating sides, so every epoch joins the same number of
			// hot pairs whatever the seed; which ops they are is drawn.
			if i%10 == 0 {
				hotSlots = [10]bool{}
				for _, slot := range rng.Perm(10)[:s.hotPerTen] {
					hotSlots[slot] = true
				}
			}
			if hotSlots[i%10] {
				o.keyA = -1 - int32(i/s.hotRotate) // negative ids are the hot keys
				o.side = hotSide
				hotSide ^= 1
			}
		}
		o.pay = int32(rng.Intn(16))
		pubsOfPair[p]++
	}
	return st
}

func keyName(id int32) string {
	if id < 0 {
		return fmt.Sprintf("hot%d", -1-id)
	}
	return fmt.Sprintf("k%d", id)
}

// line is op i as the daemon's JSON protocol spells it. Unsubscribe names
// the query by index here; the client substitutes the key the daemon
// assigned.
func (st *stream) line(i int) string {
	o := st.ops[i]
	switch o.kind {
	case opSubscribe:
		return fmt.Sprintf(`{"op":"subscribe","node":%d,"sql":%q}`, o.node, st.queries[o.query].sql())
	case opUnsubscribe:
		return fmt.Sprintf(`{"op":"unsubscribe","query":%d}`, o.query)
	default:
		return fmt.Sprintf(`{"op":"publish","node":%d,"relation":%q,"values":[%d,%q,%q,"c%d"]}`,
			o.node, relName(o.side, int(o.pair)), i, keyName(o.keyA), keyName(o.keyB), o.pay)
	}
}

// encode writes the whole stream in its canonical form: the standing
// subscriptions, then one line per op.
func (st *stream) encode(w io.Writer) error {
	for _, q := range st.queries[:st.standing] {
		if _, err := fmt.Fprintf(w, `{"op":"subscribe","node":%d,"sql":%q}`+"\n", q.node, q.sql()); err != nil {
			return err
		}
	}
	for i := range st.ops {
		if _, err := io.WriteString(w, st.line(i)+"\n"); err != nil {
			return err
		}
	}
	return nil
}
