package daemon

import (
	"slices"
	"sort"

	"cqjoin/internal/id"
	"cqjoin/internal/lockdep"
	"cqjoin/internal/wire"
)

// Process membership for the multi-process overlay. Every daemon holds a
// versioned view — the sorted list of live process addresses — and derives
// node ownership from it by consistent hashing: each process occupies the
// ring position Hash(addr), and a node belongs to the process whose
// position is the clockwise successor of the node's identifier. The same
// view therefore yields the same owner map on every process, with no
// coordination beyond agreeing on the view, and a membership change moves
// only the arcs adjacent to the joining or leaving process.
//
// Views carry a deterministic total order: (Version, Hash(Origin)), the
// origin address itself as the final tie-break. A process adopts gossip
// iff it strictly succeeds what it holds, so replayed and reordered view
// frames are no-ops — and two changes originated concurrently at the same
// base version (two joiners admitted through different seed processes in
// the same instant) resolve to the same winner everywhere. The losing
// originator's change is not forgotten: the originator keeps the delta
// pending and re-originates it on top of any adopted view that does not
// reflect it, at a strictly higher version, so both concurrent changes
// land in a single linear version history (DESIGN.md §14.5).
type membership struct {
	mu      lockdep.Mutex[membershipMu]
	self    string // this process's overlay address (origin of local changes)
	version uint64
	origin  string       // originator of the installed view
	procs   []string     // sorted addresses
	points  []ownerPoint // procs by ring position, ascending
	pending *pendingDelta
	history []viewStamp
}

type membershipMu struct{} // membership.mu's lock class

// ownerPoint is one process's position on the identifier ring.
type ownerPoint struct {
	pos  id.ID
	addr string
}

// pendingDelta is a membership change this process originated and must
// see reflected in the winning view lineage before forgetting it.
type pendingDelta struct {
	add  bool   // admit addr (a join) vs depart addr (a leave)
	addr string // the address the change concerns
}

// viewStamp identifies one adopted view: its version and originator.
type viewStamp struct {
	version uint64
	origin  string
}

// maxViewHistory bounds the adopted-stamp history: convergence checks
// only ever need a recent suffix, and without a cap ongoing membership
// churn on a long-lived daemon grows the slice without bound.
const maxViewHistory = 64

// viewAfter reports whether view (version, origin) strictly succeeds the
// held (curVersion, curOrigin) in the total order.
func viewAfter(version uint64, origin string, curVersion uint64, curOrigin string) bool {
	if version != curVersion {
		return version > curVersion
	}
	if origin == curOrigin {
		return false
	}
	oh, ch := id.Hash(origin), id.Hash(curOrigin)
	if !oh.Equal(ch) {
		return ch.Less(oh)
	}
	return origin > curOrigin
}

// newMembership builds the initial view held by the process at self.
// Version 1 marks a configured (non-empty) member list; a process joining
// an existing overlay starts at version 0 with the current members, so
// any authoritative view it is handed applies. The boot view has no
// originator: every configured process holds an identical stamp.
func newMembership(self string, procs []string, version uint64) *membership {
	m := &membership{self: self}
	m.install(version, "", procs)
	return m
}

// install replaces the view and stamps the history. Callers hold m.mu (or
// own m exclusively).
func (m *membership) install(version uint64, origin string, procs []string) {
	sorted := append([]string(nil), procs...)
	sort.Strings(sorted)
	points := make([]ownerPoint, len(sorted))
	for i, p := range sorted {
		points[i] = ownerPoint{pos: id.Hash(p), addr: p}
	}
	sort.Slice(points, func(i, j int) bool { return points[i].pos.Less(points[j].pos) })
	m.version = version
	m.origin = origin
	m.procs = sorted
	m.points = points
	m.history = append(m.history, viewStamp{version: version, origin: origin})
	if n := len(m.history); n > maxViewHistory {
		m.history = append(m.history[:0], m.history[n-maxViewHistory:]...)
	}
}

// viewLocked copies the current view. Callers hold m.mu.
func (m *membership) viewLocked() *wire.MemberView {
	return &wire.MemberView{Version: m.version, Origin: m.origin, Procs: append([]string(nil), m.procs...)}
}

// view returns a copy of the current view for gossiping.
func (m *membership) view() *wire.MemberView {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.viewLocked()
}

// reflects reports whether procs embodies the pending change.
func (p *pendingDelta) reflects(procs []string) bool {
	for _, q := range procs {
		if q == p.addr {
			return p.add
		}
	}
	return !p.add
}

// apply adopts v iff it strictly succeeds the held view in the total
// order. It reports whether the view changed and the version held
// afterwards. When the adopted view fails to reflect a change this
// process originated (a concurrent originator won the same-version
// arbitration), the change is re-originated on top of the winner at a
// strictly higher version and returned as reissue — the caller must
// gossip it. The pending change is dropped instead when the adopted view
// already reflects it, or when the adopted view was originated by the
// very address the change concerns: a process that originates views
// speaks for its own membership, and resurrecting it against its will
// (e.g. re-adding a joiner that has since departed) would fork the
// lineage it started.
func (m *membership) apply(v *wire.MemberView) (changed bool, version uint64, reissue *wire.MemberView) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !viewAfter(v.Version, v.Origin, m.version, m.origin) {
		return false, m.version, nil
	}
	m.install(v.Version, v.Origin, v.Procs)
	if p := m.pending; p != nil {
		switch {
		case p.reflects(m.procs) || v.Origin == p.addr:
			m.pending = nil
		default:
			procs := make([]string, 0, len(m.procs)+1)
			for _, q := range m.procs {
				if q != p.addr {
					procs = append(procs, q)
				}
			}
			if p.add {
				procs = append(procs, p.addr)
			}
			m.install(m.version+1, m.self, procs)
			reissue = m.viewLocked()
		}
	}
	return true, m.version, reissue
}

// add admits addr and returns the resulting view. Re-admitting a current
// member returns the unchanged view, so replayed join frames are no-ops.
// The admission is held pending until a winning view reflects it.
func (m *membership) add(addr string) (*wire.MemberView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if slices.Contains(m.procs, addr) {
		return m.viewLocked(), false
	}
	m.install(m.version+1, m.self, append(append([]string(nil), m.procs...), addr))
	m.pending = &pendingDelta{add: true, addr: addr}
	return m.viewLocked(), true
}

// remove departs addr and returns the resulting view; ok is false when
// addr was not a member. The departure is held pending until a winning
// view reflects it.
func (m *membership) remove(addr string) (*wire.MemberView, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	rest := make([]string, 0, len(m.procs))
	for _, p := range m.procs {
		if p != addr {
			rest = append(rest, p)
		}
	}
	if len(rest) == len(m.procs) {
		return nil, false
	}
	m.install(m.version+1, m.self, rest)
	m.pending = &pendingDelta{add: false, addr: addr}
	return m.viewLocked(), true
}

// ownerOf maps a node's ring position to the address of its owning process:
// the clockwise successor of pos among the member positions. Empty when the
// view has no members. A daemon's node sits at Hash(its key) (chord's Join),
// so its position is the one chord holds (chord.Node.ID), not hashed again.
func (m *membership) ownerOf(pos id.ID) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.points) == 0 {
		return ""
	}
	i := sort.Search(len(m.points), func(i int) bool { return !m.points[i].pos.Less(pos) })
	if i == len(m.points) {
		i = 0 // wrapped past the highest position
	}
	return m.points[i].addr
}
