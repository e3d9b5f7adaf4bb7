package chord

import "cqjoin/internal/id"

// routeView is a node's routing state as one immutable value: its
// predecessor, its successor list and its finger table. A node publishes a
// new view whenever that state changes — built copy-on-write under its lock —
// and every read, a hop's above all, loads the current one without a lock.
// Each entry carries its node's head (id.ID.Head), so a hop decides its
// interval tests on 64-bit words and reads a full identifier only when two
// heads tie.
type routeView struct {
	pred    routeEntry   // node nil: no predecessor known
	succs   []routeEntry // the successor list, the immediate successor first
	fingers []fingerRun  // the finger table's runs, highest index first; none: no finger known
}

// routeEntry is one node a view names, with its identifier's head.
type routeEntry struct {
	node *Node
	head uint64
}

func entry(m *Node) routeEntry {
	if m == nil {
		return routeEntry{}
	}
	return routeEntry{node: m, head: m.head}
}

func entries(list []*Node) []routeEntry {
	out := make([]routeEntry, len(list))
	for i, m := range list {
		out[i] = entry(m)
	}
	return out
}

// fingerRun is one node of the finger table and the table indexes it fills:
// lo up to just below the run before it, or up to id.Bits-1 for the first.
// On a 2048-node ring a table of 160 entries is about 11 runs.
type fingerRun struct {
	routeEntry
	lo uint8
	// stray marks a run whose node lies closer than 2^lo clockwise of the
	// table's owner, and is not the owner. No lookup installs one (a lookup
	// ends at or past its target), so only a test's hand-made table holds it.
	stray bool
}

// fingerRuns compresses table, n's finger table, into its runs.
func fingerRuns(n *Node, table *[id.Bits]*Node) []fingerRun {
	count := 1
	for j := 1; j < id.Bits; j++ {
		if table[j] != table[j-1] {
			count++
		}
	}
	out := make([]fingerRun, 0, count)
	for j := id.Bits - 1; j >= 0; j-- {
		if j > 0 && table[j-1] == table[j] {
			continue
		}
		f := table[j]
		out = append(out, fingerRun{
			routeEntry: entry(f),
			lo:         uint8(j),
			stray:      f != nil && f != n && id.Distance(n.id, f.id).BitLen() <= j,
		})
	}
	return out
}

// withPred, withSuccs and withFingers return a copy of the view with one part
// replaced: a writer, holding its node's lock, publishes what they return.
func (v routeView) withPred(p *Node) *routeView { v.pred = entry(p); return &v }

func (v routeView) withSuccs(succs []routeEntry) *routeView { v.succs = succs; return &v }

func (v routeView) withFingers(runs []fingerRun) *routeView { v.fingers = runs; return &v }

// table spells the view's finger table out, entry j-1 being finger j.
func (v *routeView) table() (t [id.Bits]*Node) {
	hi := id.Bits
	for _, f := range v.fingers {
		for j := int(f.lo); j < hi; j++ {
			t[j] = f.node
		}
		hi = int(f.lo)
	}
	return t
}

// between is id.Between(*x, *a, *b) for identifiers whose heads are xh, ah
// and bh: decided on the heads where they differ pairwise.
func between(x, a, b *id.ID, xh, ah, bh uint64) bool {
	if in, ok := id.BetweenHeads(xh, ah, bh); ok {
		return in
	}
	return id.Between(*x, *a, *b)
}

// betweenRightIncl is id.BetweenRightIncl(*x, *a, *b), decided the same way.
func betweenRightIncl(x, a, b *id.ID, xh, ah, bh uint64) bool {
	if in, ok := id.BetweenHeads(xh, ah, bh); ok {
		return in
	}
	return id.BetweenRightIncl(*x, *a, *b)
}
