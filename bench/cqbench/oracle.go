package main

import "math"

// opTimes is when the client issued op i and when its reply arrived, in
// nanoseconds since the run's epoch. A zero ack means the op never
// completed.
type opTimes struct{ send, ack int64 }

// A triple identifies one notification: the query that fired and the Id
// attributes of the R and S tuples that matched.
type triple struct{ query, r, s int32 }

// verdict is the oracle's comparison of what arrived with what had to.
type verdict struct {
	expected   int // notifications that had to arrive
	ambiguous  int // pairs racing a subscribe or unsubscribe: either outcome is correct
	stale      int // of those, notifications that outlived their query (see judge)
	missing    int
	duplicate  int
	unexpected int
	// failedPubs holds the later publication of every missing, duplicated
	// or unexpected notification.
	failedPubs map[int32]struct{}
}

// lifetime is the interval a query was certainly live (after ackSub, before
// sendUnsub) and the one outside which it certainly was not.
type lifetime struct{ sendSub, ackSub, sendUnsub, ackUnsub int64 }

type cond struct{ pair, attr int32 }

// judge recomputes the join from the stream — a hash join on (relation
// pair, attribute, key) — and compares it with the notifications received.
//
// A notification for query q and tuples r, s is required when both
// publications were sent after q's subscribe was acknowledged and both were
// acknowledged before q's unsubscribe was sent. It is forbidden when one
// publication was acknowledged before the subscribe was sent (that tuple is
// older than the query) or one was sent after the unsubscribe was
// acknowledged while the other did not overlap the unsubscribe. Anything
// between is a race the system may resolve either way. Standing queries
// precede every publication, so on publish-only workloads every pair is
// required.
//
// The overlap clause is there because of what the engine does today: a
// publication racing an unsubscribe can store its rewritten query at the
// evaluator after the unsubscribe's purge has passed, and that rewrite then
// answers tuples published long after the query is gone. The workload must
// not fail on behaviour it did not set out to test, so such notifications
// are counted as stale and reported, not failed.
func judge(st *stream, times []opTimes, got map[triple]int) verdict {
	v := verdict{failedPubs: make(map[int32]struct{})}
	lives := make([]lifetime, len(st.queries))
	for i := range lives {
		lives[i] = lifetime{math.MinInt64, math.MinInt64, math.MaxInt64, math.MaxInt64}
	}
	byCond := make(map[cond][]int32)
	for i, q := range st.queries {
		c := cond{int32(q.pair), int32(q.attr)}
		byCond[c] = append(byCond[c], int32(i))
	}
	for i, o := range st.ops {
		t := times[i]
		if t.ack == 0 {
			t.ack = math.MaxInt64
		}
		switch o.kind {
		case opSubscribe:
			lives[o.query].sendSub, lives[o.query].ackSub = t.send, t.ack
		case opUnsubscribe:
			lives[o.query].sendUnsub, lives[o.query].ackUnsub = t.send, t.ack
		}
	}
	fail := func(r, s int32) {
		later := r
		if s > r {
			later = s
		}
		v.failedPubs[later] = struct{}{}
	}

	type bucket struct{ r, s []int32 }
	type bucketKey struct {
		cond
		key int32
	}
	buckets := make(map[bucketKey]*bucket)
	seen := make(map[triple]struct{}, len(got))
	for i, o := range st.ops {
		if o.kind != opPublish {
			continue
		}
		keys := [...]int32{o.keyA, o.keyB}
		for a, key := range keys[:st.spec.conds] {
			c := cond{o.pair, int32(a)}
			bk := bucketKey{c, key}
			b := buckets[bk]
			if b == nil {
				b = &bucket{}
				buckets[bk] = b
			}
			mine, others := &b.r, b.s
			if o.side == 1 {
				mine, others = &b.s, b.r
			}
			for _, other := range others {
				r, s := int32(i), other
				if o.side == 1 {
					r, s = other, int32(i)
				}
				tr, ts := times[r], times[s]
				if tr.ack == 0 || ts.ack == 0 {
					continue // a failed publication is counted on its own
				}
				for _, q := range byCond[c] {
					t := triple{q, r, s}
					seen[t] = struct{}{}
					n := got[t]
					l := lives[q]
					first, last := tr, ts // by send time
					if ts.send < tr.send {
						first, last = ts, tr
					}
					afterUnsub := last.send > l.ackUnsub
					racedUnsub := first.ack >= l.sendUnsub && first.send <= l.ackUnsub
					required := first.send > l.ackSub && max(tr.ack, ts.ack) < l.sendUnsub
					forbidden := min(tr.ack, ts.ack) < l.sendSub || (afterUnsub && !racedUnsub)
					switch {
					case required:
						v.expected++
						if n == 0 {
							v.missing++
							fail(r, s)
						}
					case forbidden:
						if n > 0 {
							v.unexpected += n
							fail(r, s)
						}
						continue
					default:
						v.ambiguous++
						if afterUnsub {
							v.stale += n
						}
					}
					if n > 1 {
						v.duplicate += n - 1
						fail(r, s)
					}
				}
			}
			*mine = append(*mine, int32(i))
		}
	}
	for t, n := range got {
		if _, ok := seen[t]; !ok {
			v.unexpected += n
			fail(t.r, t.s)
		}
	}
	return v
}
