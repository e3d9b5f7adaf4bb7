package engine

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"cqjoin/internal/chord"
	"cqjoin/internal/id"
	"cqjoin/internal/query"
	"cqjoin/internal/relation"
)

// Identifier construction (Sections 4.2, 4.3.1, 4.5). Every index
// identifier is the hash of a canonical string. A value-level slot is keyed
// by its identifier, every other table by the string, so items can be
// re-homed on churn either way.

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

// appendVLInput appends the value-level hash input R + A + v to b: a
// receiver builds it in a stack buffer and hashes it (vlHash), which
// allocates nothing; only a purge list that keeps the input makes it a
// string.
func appendVLInput(b []byte, rel, attr string, v relation.Value) []byte {
	b = append(b, rel...)
	b = append(b, '+')
	b = append(b, attr...)
	b = append(b, '+')
	return v.AppendCanon(b)
}

// daivInput is DAI-V's value-level hash input: just the value the join
// condition must take (Section 4.5), unprefixed by relation or attribute —
// the reason DAI-V groups more and distributes less.
func daivInput(v relation.Value) string { return v.Canon() }

// relAttr names one attribute of one relation.
type relAttr struct{ rel, attr string }

// alIdent is an attribute-level input, its identifier and its ordinal: where
// a publisher keeps the input's rewriter's verdict (nodeState.verdicts), -1
// for an input the catalog did not hold at New.
type alIdent struct {
	input string
	id    id.ID
	ord   int
}

// alIdents computes every catalog attribute's attribute-level inputs and
// identifiers, one per replica, once (Engine.New): a relation's are the same
// for every tuple it publishes, so their number is bounded by the catalog,
// not by what is published. It also returns each input's ordinal, by input.
func alIdents(catalog *relation.Catalog, replicas int) (map[relAttr][]alIdent, map[string]int) {
	out, ords := make(map[relAttr][]alIdent), make(map[string]int)
	for _, schema := range catalog.Schemas() {
		for i := 0; i < schema.Arity(); i++ {
			ids := make([]alIdent, replicas)
			for r := range ids {
				input := alInput(schema.Name(), schema.Attr(i), r)
				ids[r] = alIdent{input: input, id: id.Hash(input), ord: len(ords)}
				ords[input] = len(ords)
			}
			out[relAttr{schema.Name(), schema.Attr(i)}] = ids
		}
	}
	return out, ords
}

// alKey returns the attribute-level identity of (rel, attr) on replica: the
// catalog's, or — for a relation the catalog took in after New, or a replica
// past the configured factor — built and hashed here, with no ordinal.
func (e *Engine) alKey(rel, attr string, replica int) alIdent {
	if ids := e.alIDs[relAttr{rel, attr}]; replica >= 0 && replica < len(ids) {
		return ids[replica]
	}
	input := alInput(rel, attr, replica)
	return alIdent{input: input, id: id.Hash(input), ord: -1}
}

// replicaOf deterministically assigns a tuple's attribute value to one of
// the k rewriter replicas, so equal values always meet the same replica and
// per-replica statistics stay meaningful.
func (e *Engine) replicaOf(v relation.Value) int {
	k := e.cfg.ReplicationFactor
	if k <= 1 {
		return 0
	}
	var buf [keyScratch]byte
	h := id.HashBytes(v.AppendCanon(append(buf[:0], "replica+"...)))
	return int(binary.BigEndian.Uint64(h[:8]) % uint64(k))
}

// indexQuery routes a freshly keyed query to its rewriter node(s) and returns
// it with the insertion time it drew on the way. A chain (k > 2) is indexed
// at one endpoint as under SAI, and walked from there.
func (e *Engine) indexQuery(from *chord.Node, q *query.Query) (*query.Query, error) {
	alg := e.cfg.Algorithm
	if q.Arity() > 2 {
		alg = SAI // Subscribe refused a chain outside SAI and DAI-Q
	}
	switch alg {
	case SAI:
		side, err := e.chooseIndexSide(from, q)
		if err != nil {
			return nil, err
		}
		attr, err := q.SingleAttr(side)
		if err != nil {
			return nil, err
		}
		return e.sendQueryIndex(from, q, []sideAttr{{side, attr}})
	case DAIQ, DAIT:
		la, err := q.SingleAttr(query.SideLeft)
		if err != nil {
			return nil, err
		}
		ra, err := q.SingleAttr(query.SideRight)
		if err != nil {
			return nil, err
		}
		return e.sendQueryIndex(from, q, []sideAttr{{query.SideLeft, la}, {query.SideRight, ra}})
	case DAIV:
		// Section 4.5: with several candidate attributes per side, the
		// index attribute is chosen at random.
		la := pick(e, q.SideAttrs(query.SideLeft))
		ra := pick(e, q.SideAttrs(query.SideRight))
		return e.sendQueryIndex(from, q, []sideAttr{{query.SideLeft, la}, {query.SideRight, ra}})
	default:
		return nil, fmt.Errorf("engine: unknown algorithm %v", e.cfg.Algorithm)
	}
}

// interestInputs lists where q, indexed under indexSide, leaves an interest
// mark: at each relation its rewrites go on to, the attribute they wait on
// there, at whose value level they are stored and the tuples they probe must
// be — a two-way query's other side, a chain's every later relation. Double
// indexing indexes both sides and so marks both.
func (e *Engine) interestInputs(q *query.Query, indexSide query.Side) []string {
	if e.cfg.Algorithm == DAIV || e.cfg.BlindIndexing {
		return nil
	}
	var inputs []string
	for stage := 1; stage < q.Arity(); stage++ {
		if want, ok := q.StageAttr(indexSide, stage); ok { // not type T1: Subscribe has refused it
			inputs = e.replicaInputs(inputs, want.Rel, want.Attr)
		}
	}
	return inputs
}

// replicaInputs appends (rel, attr)'s input on every replica to inputs.
func (e *Engine) replicaInputs(inputs []string, rel, attr string) []string {
	for r := 0; r < e.cfg.ReplicationFactor; r++ {
		inputs = append(inputs, alInput(rel, attr, r))
	}
	return inputs
}

// announceInterest leaves query key's interest mark at every input and
// returns once each is acknowledged.
func (e *Engine) announceInterest(from *chord.Node, key string, inputs []string) error {
	batch := make([]chord.Deliverable, len(inputs))
	for i, input := range inputs {
		batch[i] = chord.Deliverable{Target: id.Hash(input), Msg: interestMsg{QueryKey: key, Input: input}}
	}
	return e.dispatch(from, batch)
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
// rewriter, replicated across the attribute-level replicas, one identifier
// per destination in one multisend (Section 4.4.1: indexing at both rewriters
// costs 2·O(log N) hops). Its interest marks go first and its insertion time
// is drawn once they are acked: no tuple with pubT >= insT passes them by.
func (e *Engine) sendQueryIndex(from *chord.Node, q *query.Query, idx []sideAttr) (*query.Query, error) {
	var inputs []string
	for _, sa := range idx {
		inputs = append(inputs, e.interestInputs(q, sa.side)...)
	}
	if err := e.announceInterest(from, q.Key(), inputs); err != nil {
		return nil, err
	}
	q = q.WithInsT(e.net.Clock().Tick())
	var batch []chord.Deliverable
	for _, sa := range idx {
		rel := q.Rel(sa.side).Name()
		for r := 0; r < e.cfg.ReplicationFactor; r++ {
			al := e.alKey(rel, sa.attr, r)
			if !slices.Contains(inputs, al.input) { // marked too: one retraction takes both
				inputs = append(inputs, al.input)
			}
			batch = append(batch, chord.Deliverable{Target: al.id, Msg: queryMsg{Q: q, Side: sa.side, Attr: sa.attr, Replica: r}})
		}
	}
	// The subscriber remembers its query and where it and its marks live so
	// it can retract them later (Unsubscribe).
	e.mu.Lock()
	e.subs[q.Key()] = standing{q: q, inputs: inputs}
	e.mu.Unlock()
	return q, e.dispatch(from, batch)
}

// indexTuple implements the tuple-indexing protocol of Section 4.2: for
// every attribute A_i with value v_i, the tuple is sent to the attribute
// level (AIndex_i), where the rewriter sends it on to the value level
// (VIndex_i) while a query reads it there (handleALIndex) — or, with
// Config.BlindIndexing, to both by the publisher, 2h messages in one multisend.
// DAI-V indexes tuples only at the attribute level (Section 4.5).
func (e *Engine) indexTuple(from *chord.Node, t *relation.Tuple) error {
	schema := t.Schema()
	blind := e.cfg.BlindIndexing && e.cfg.Algorithm != DAIV
	var batchBuf [8]chord.Deliverable
	var ordBuf [8]int
	batch, ords := batchBuf[:0], ordBuf[:0]
	msgs := make([]alIndexMsg, schema.Arity()) // the publication's h messages, one allocation
	var buf [keyScratch]byte
	for i := range msgs {
		a, v := schema.Attr(i), t.ValueAt(i)
		msgs[i] = alIndexMsg{vlIndexMsg: vlIndexMsg{T: t, Attr: a}, Replica: e.replicaOf(v)}
		al := e.alKey(schema.Name(), a, msgs[i].Replica)
		batch = append(batch, chord.Deliverable{Target: al.id, Msg: &msgs[i]})
		ords = append(ords, al.ord)
		if blind { // the vl-index message the al-index one holds
			batch = append(batch, chord.Deliverable{
				Target: vlHash(appendVLInput(buf[:0], schema.Name(), a, v)),
				Msg:    &msgs[i].vlIndexMsg,
			})
		}
	}
	if e.cfg.BlindIndexing {
		return e.dispatch(from, batch)
	}
	return e.dispatchHinted(from, schema, batch, ords)
}

// dispatchHinted sends a publication's al-index messages, batch[i] attribute
// i's with attribute-level ordinal ords[i], in one multisend, each hinted to the
// node that took the publisher's last of the relation: arity hops at most, where
// the walk costs O(arity · log N), and one for rewriters that share a node.
// While the publisher has no owner for one of them — all, the first time — the
// batch walks. Who took delivery, hinted or walked, is what the publisher
// remembers next (alHints), so a memory a join or a move made stale repairs
// itself from the send that found out.
//
// A message whose rewriter said nothing reads its attribute is not sent, nor
// looked for among the owners, until the rewriter revokes that. Where the
// publisher holds no verdict a hinted send asks for one — a walk never does:
// the ask would ride its every leg — and the ack brings it back
// (handleALIndex). An answer read after a revocation arrived since the ask may
// predate it, and is discarded.
func (e *Engine) dispatchHinted(from *chord.Node, schema *relation.Schema, batch []chord.Deliverable, ords []int) error {
	st := e.state(from)
	var gotBuf [8]*chord.Node
	var slotBuf [8]int
	var verdictBuf [8]byte
	st.mu.Lock()
	hints := st.alOwners.owners(schema)
	revokes := st.revokes
	// What is sent, compacted in place: each message with its ordinal, its owner
	// slot (attribute position × replica) and the verdict the publisher holds.
	sent, sentOrds, slots, verdicts := batch[:0], ords[:0], slotBuf[:0], verdictBuf[:0]
	known := len(hints) > 0 // an owner for every message sent
	for i, d := range batch {
		v := st.verdict(ords[i])
		if v == verdictSilent {
			continue
		}
		slot := i*e.cfg.ReplicationFactor + d.Msg.(*alIndexMsg).Replica
		known = known && hints[slot] != nil
		sent, sentOrds = append(sent, d), append(sentOrds, ords[i])
		slots, verdicts = append(slots, slot), append(verdicts, v)
	}
	var asks []alAskMsg // made on the publication's first ask
	for i := 0; known && i < len(sent); i++ {
		sent[i].Hint = hints[slots[i]]
		if verdicts[i] == verdictUnknown && sentOrds[i] >= 0 {
			if asks == nil {
				asks = make([]alAskMsg, len(sent))
			}
			asks[i].alIndexMsg, asks[i].asker = sent[i].Msg.(*alIndexMsg), from.Key()
			sent[i].Msg = &asks[i]
		}
	}
	st.mu.Unlock()
	if skipped := len(batch) - len(sent); skipped > 0 {
		e.obs.hints.Add("al.silent", int64(skipped))
	}
	if len(sent) == 0 {
		return nil
	}
	batch, ords = sent, sentOrds
	got, err := e.send(from, batch, gotBuf[:0])
	outcome := "al.miss"
	if known {
		outcome = "al.hit"
		for i, d := range batch {
			if got[i] != d.Hint {
				outcome = "al.stale"
			}
		}
	}
	e.obs.hints.Add(outcome, 1)
	if outcome != "al.hit" || asks != nil {
		evicted := false
		st.mu.Lock()
		if outcome != "al.hit" {
			var owners []*chord.Node
			owners, evicted = st.alOwners.claim(schema, schema.Arity()*e.cfg.ReplicationFactor)
			for i, dst := range got {
				owners[slots[i]] = dst
			}
		}
		if asks != nil && st.revokes == revokes {
			for i := range asks {
				v := asks[i].Reply()
				if asks[i].alIndexMsg != nil && got[i] != nil && (v == verdictActive || v == verdictSilent) {
					st.setVerdict(ords[i], v)
				}
			}
		}
		st.mu.Unlock()
		if evicted {
			e.obs.hints.Add("al.reset", 1)
		}
	}
	return err
}

// verdict returns what this node holds of the rewriter of the attribute-level
// input with ordinal ord. The caller holds st.mu.
func (st *nodeState) verdict(ord int) byte {
	if ord < 0 || ord/4 >= len(st.verdicts) {
		return verdictUnknown
	}
	return st.verdicts[ord/4] >> (ord % 4 * 2) & 3
}

// setVerdict keeps verdict v on the input with ordinal ord, four two-bit
// verdicts a byte, made on the node's first: a sim-* node that publishes
// holds one for every attribute of 65 relations. The caller holds st.mu.
func (st *nodeState) setVerdict(ord int, v byte) {
	if st.verdicts == nil {
		st.verdicts = make([]byte, (len(st.engine.alOrds)+3)/4)
	}
	shift := ord % 4 * 2
	st.verdicts[ord/4] = st.verdicts[ord/4]&^(3<<shift) | v<<shift
}

// handleRevoke takes back the verdict Input's rewriter gave this node: its
// next hinted send of the attribute asks again. The count moves whatever the
// verdict, so an answer still on its way when the revocation came is discarded.
func (st *nodeState) handleRevoke(m revokeMsg) {
	ord, ok := st.engine.alOrds[m.Input]
	st.mu.Lock()
	if ok && st.verdicts != nil {
		st.setVerdict(ord, verdictUnknown)
	}
	st.revokes++
	st.mu.Unlock()
}

// dispatch sends a batch in one multisend (send).
func (e *Engine) dispatch(from *chord.Node, batch []chord.Deliverable) error {
	var recBuf [8]*chord.Node // a publication's batch, and most others, fit
	_, err := e.send(from, batch, recBuf[:0])
	return err
}

// send multisends batch from from, the recipients written into got's array
// (chord.Node.Multisend), and re-sends what no one took (retryFailed). With
// retries enabled it reports success — residual losses are charged to the
// ledger instead of failing the whole operation; at budget 0 every loss is
// booked, and the error is the walk's.
func (e *Engine) send(from *chord.Node, batch []chord.Deliverable, got []*chord.Node) ([]*chord.Node, error) {
	got, _, err := from.Multisend(batch, got)
	got = e.retryFailed(from, batch, got)
	if e.cfg.MaxRetries > 0 {
		return got, nil
	}
	return got, err
}
