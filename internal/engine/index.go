package engine

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"cqjoin/internal/chord"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Identifier construction (Sections 4.2, 4.3.1, 4.5). Every index
// identifier is the hash of a canonical string; the strings double as the
// table keys on the responsible node so items can be re-homed on churn.

// alInput is the attribute-level hash input: Hash(R + A), optionally
// suffixed with a replica number when attribute-level replication
// (Section 4.7.2) spreads the rewriter role over several nodes. Replica 0
// is the unsuffixed base identifier, so a replication factor of 1 is
// exactly the paper's unreplicated scheme.
func alInput(rel, attr string, replica int) string {
	if replica == 0 {
		return rel + "+" + attr
	}
	b := make([]byte, 0, len(rel)+len(attr)+6)
	b = append(b, rel...)
	b = append(b, '+')
	b = append(b, attr...)
	b = append(b, '#', 'r')
	b = strconv.AppendInt(b, int64(replica), 10)
	return string(b)
}

// vlInput is the value-level hash input: Hash(R + A + v).
func vlInput(rel, attr string, v relation.Value) string {
	var buf [keyScratch]byte
	b := append(buf[:0], rel...)
	b = append(b, '+')
	b = append(b, attr...)
	b = append(b, '+')
	return string(v.AppendCanon(b))
}

// daivInput is DAI-V's value-level hash input: just the value the join
// condition must take (Section 4.5), unprefixed by relation or attribute —
// the reason DAI-V groups more and distributes less.
func daivInput(v relation.Value) string { return v.Canon() }

// replicaOf deterministically assigns a tuple's attribute value to one of
// the k rewriter replicas, so equal values always meet the same replica and
// per-replica statistics stay meaningful.
func (e *Engine) replicaOf(v relation.Value) int {
	k := e.cfg.ReplicationFactor
	if k <= 1 {
		return 0
	}
	h := e.hashInput("replica+" + v.Canon())
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(k))
}

// indexQuery routes a freshly keyed query to its rewriter node(s).
func (e *Engine) indexQuery(from *chord.Node, q *query.Query) error {
	switch e.cfg.Algorithm {
	case SAI:
		side, err := e.chooseIndexSide(from, q)
		if err != nil {
			return err
		}
		attr, err := q.SingleAttr(side)
		if err != nil {
			return err
		}
		return e.sendQueryIndex(from, q, []sideAttr{{side, attr}})
	case DAIQ, DAIT:
		la, err := q.SingleAttr(query.SideLeft)
		if err != nil {
			return err
		}
		ra, err := q.SingleAttr(query.SideRight)
		if err != nil {
			return err
		}
		return e.sendQueryIndex(from, q, []sideAttr{{query.SideLeft, la}, {query.SideRight, ra}})
	case DAIV:
		// Section 4.5: with several candidate attributes per side, the
		// index attribute is chosen at random.
		la := pick(e, q.SideAttrs(query.SideLeft))
		ra := pick(e, q.SideAttrs(query.SideRight))
		return e.sendQueryIndex(from, q, []sideAttr{{query.SideLeft, la}, {query.SideRight, ra}})
	case BaselineRelation, BaselineAttribute, BaselinePair:
		return e.indexQueryBaseline(from, q)
	default:
		return fmt.Errorf("engine: unknown algorithm %v", e.cfg.Algorithm)
	}
}

type sideAttr struct {
	side query.Side
	attr string
}

func pick(e *Engine, options []string) string {
	if len(options) == 1 {
		return options[0]
	}
	return options[e.randIntn(len(options))]
}

// sendQueryIndex ships the query(q) message to every (side, attribute)
// rewriter, replicated across the attribute-level replicas. One identifier
// per destination; a single destination uses send(), several use
// multisend() (Section 4.4.1: indexing at both rewriters costs
// 2·O(log N) hops).
func (e *Engine) sendQueryIndex(from *chord.Node, q *query.Query, idx []sideAttr) error {
	var batch []chord.Deliverable
	var inputs []string
	for _, sa := range idx {
		rel := q.Rel(sa.side).Name()
		for r := 0; r < e.cfg.ReplicationFactor; r++ {
			input := alInput(rel, sa.attr, r)
			inputs = append(inputs, input)
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(input),
				Msg:    queryMsg{Q: q, Side: sa.side, Attr: sa.attr, Replica: r},
			})
		}
	}
	// The subscriber remembers where its query lives so it can retract it
	// later (Unsubscribe).
	e.mu.Lock()
	e.subs[q.Key()] = inputs
	e.mu.Unlock()
	return e.dispatch(from, batch)
}

// indexTuple implements the tuple-indexing protocol of Section 4.2: for
// every attribute A_i with value v_i, the tuple is sent once to the
// attribute level (AIndex_i) and once to the value level (VIndex_i),
// 2h messages in one multisend. DAI-V indexes tuples only at the attribute
// level (Section 4.5).
func (e *Engine) indexTuple(from *chord.Node, t *relation.Tuple) error {
	switch e.cfg.Algorithm {
	case BaselineRelation, BaselineAttribute, BaselinePair:
		return e.indexTupleBaseline(from, t)
	}
	schema := t.Schema()
	batch := make([]chord.Deliverable, 0, 2*schema.Arity())
	for i := 0; i < schema.Arity(); i++ {
		a, v := schema.Attr(i), t.ValueAt(i)
		rep := e.replicaOf(v)
		batch = append(batch, chord.Deliverable{
			Target: e.hashInput(alInput(schema.Name(), a, rep)),
			Msg:    alIndexMsg{T: t, Attr: a, Replica: rep},
		})
		if e.cfg.Algorithm != DAIV {
			batch = append(batch, chord.Deliverable{
				Target: e.hashInput(vlInput(schema.Name(), a, v)),
				Msg:    vlIndexMsg{T: t, Attr: a},
			})
		}
	}
	return e.dispatch(from, batch)
}

// dispatch sends a batch through the configured multisend flavor. With
// retries enabled, unacked deliverables are re-sent up to the budget and
// dispatch reports success — residual losses are charged to the ledger
// instead of failing the whole operation.
func (e *Engine) dispatch(from *chord.Node, batch []chord.Deliverable) error {
	if len(batch) == 0 {
		return nil
	}
	var recipients []*chord.Node
	var err error
	if len(batch) == 1 {
		var dst *chord.Node
		dst, _, err = from.Send(batch[0].Msg, batch[0].Target)
		if err == nil {
			recipients = []*chord.Node{dst}
		}
	} else if e.cfg.IterativeMultisend {
		recipients, _, err = from.MultisendIterative(batch)
	} else {
		recipients, _, err = from.Multisend(batch)
	}
	if e.cfg.MaxRetries > 0 {
		e.retryFailed(from, batch, recipients)
		return nil
	}
	return err
}
