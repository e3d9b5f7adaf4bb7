package engine

import (
	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
)

// Strategy selects the index attribute of a SAI query (Section 4.3.6). The
// choice fixes which join attribute's rewriter stores the query, trading
// network traffic (fewer triggers when the index relation's tuples arrive
// rarely) against evaluator load distribution.
type Strategy int

const (
	// StrategyRandom picks one of the two join attributes uniformly — the
	// default assumption of Section 4.3.1.
	StrategyRandom Strategy = iota
	// StrategyMinRate indexes the query under the attribute whose relation
	// shows the lower rate of incoming tuples, minimizing how often the
	// query is triggered, rewritten and reindexed. This is the strategy the
	// paper uses in its experiments.
	StrategyMinRate
	// StrategyMinDomain indexes under the attribute with the smaller
	// observed value domain, avoiding evaluators for values that can never
	// produce notifications.
	StrategyMinDomain
	// StrategyLeft always picks the left join attribute; deterministic,
	// for tests and as a worst/best-case foil in the strategy experiments.
	StrategyLeft
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyRandom:
		return "random"
	case StrategyMinRate:
		return "min-rate"
	case StrategyMinDomain:
		return "min-domain"
	case StrategyLeft:
		return "left"
	default:
		return "unknown"
	}
}

// chooseIndexSide applies the configured strategy for a SAI query posed at
// node from. The rate and domain strategies probe the two candidate
// rewriters first ("any node can simply ask the two possible rewriter
// nodes before indexing a query", Section 4.3.6); each probe costs one
// routed message charged to the strategy-probe kind. A chain's sides are its
// two endpoints.
func (e *Engine) chooseIndexSide(from *chord.Node, q *query.Query) (query.Side, error) {
	switch e.cfg.Strategy {
	case StrategyLeft:
		return query.SideLeft, nil
	case StrategyRandom:
		return query.Side(e.randIntn(2)), nil
	}

	leftStats, err := e.probeRewriter(from, q, query.SideLeft)
	if err != nil {
		return 0, err
	}
	rightStats, err := e.probeRewriter(from, q, query.SideRight)
	if err != nil {
		return 0, err
	}

	switch e.cfg.Strategy {
	case StrategyMinRate:
		// Index at the relation with the LOWER tuple arrival rate so fewer
		// insertions trigger, rewrite and reindex the query.
		if leftStats.rate <= rightStats.rate {
			return query.SideLeft, nil
		}
		return query.SideRight, nil
	case StrategyMinDomain:
		if leftStats.domain <= rightStats.domain {
			return query.SideLeft, nil
		}
		return query.SideRight, nil
	default:
		return query.Side(e.randIntn(2)), nil
	}
}

// rewriterStats is a probe answer: tuple arrivals within the observation
// window and distinct attribute values seen.
type rewriterStats struct {
	rate   int64
	domain int
}

// probeRewriter routes a probe to the (first replica of the) rewriter
// responsible for one side's index attribute and reads its statistics.
func (e *Engine) probeRewriter(from *chord.Node, q *query.Query, side query.Side) (rewriterStats, error) {
	attr, err := q.SingleAttr(side)
	if err != nil {
		return rewriterStats{}, err
	}
	input := alInput(q.Rel(side).Name(), attr, 0)
	dst, _, err := from.Send(probeMsg{AttrInput: input}, id.Hash(input))
	if err != nil {
		return rewriterStats{}, err
	}
	return e.state(dst).readStats(input), nil
}

// probesRewriters reports whether the configured strategy reads rewriter
// arrival statistics; rewriters record them only then.
func (e *Engine) probesRewriters() bool {
	return e.cfg.Strategy == StrategyMinRate || e.cfg.Strategy == StrategyMinDomain
}

// readStats reads one ALQT bucket's arrival statistics. With a sliding
// window configured, arrivals that have left it are dropped here: the
// clock only moves forward, so they can never count again.
func (st *nodeState) readStats(input string) rewriterStats {
	st.mu.Lock()
	defer st.mu.Unlock()
	b, ok := st.alqt[input]
	if !ok {
		return rewriterStats{}
	}
	if w := st.engine.cfg.Window; w > 0 {
		cutoff := st.engine.net.Clock().Now() - w
		kept := b.arrivals[:0]
		for _, ts := range b.arrivals {
			if ts >= cutoff {
				kept = append(kept, ts)
			}
		}
		b.arrivals = kept
	}
	return rewriterStats{rate: int64(len(b.arrivals)), domain: len(b.distinct)}
}
