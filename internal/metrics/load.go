package metrics

import "cqjoin/internal/obs"

// Load accumulates the first of the two per-node load metrics the paper
// introduces as a technical contribution (Chapter 1): the filtering load TF —
// how many filtering operations (tuple-against-query or query-against-tuple
// match attempts triggered by received messages) a node performed. The other,
// the storage load TS — how many items (queries, rewritten queries, tuples,
// stored notifications) the node currently holds — is a level, not a flow:
// the engine counts it off the node's tables when asked, so nothing here
// keeps a second copy of it.
//
// Loads are tracked per role, so figures can split "rewriter" (attribute
// level) from "evaluator" (value level) load as Figure 5.11 requires.
//
// The role set is small and fixed, so Load holds one obs.Counter per role
// inline: every update is a single atomic add with no lock and no
// allocation — this is the hottest counter in the simulator (one bump per
// filtering operation on every node).
//
// The zero Load is ready to use. All methods are safe for concurrent use.
// Load must not be copied after first use (it embeds atomics); it is
// always reached through its owning node state's pointer.
type Load struct {
	filtering [numRoles]obs.Counter
}

// Role identifies which of the two-level-indexing roles charged a load unit.
type Role int

const (
	// Rewriter load is incurred at the attribute level (ALQT processing).
	Rewriter Role = iota
	// Evaluator load is incurred at the value level (VLQT/VLTT processing).
	Evaluator
	numRoles
)

// String names the role for reports.
func (r Role) String() string {
	switch r {
	case Rewriter:
		return "rewriter"
	case Evaluator:
		return "evaluator"
	default:
		return "unknown"
	}
}

// valid reports whether r is a known role; unknown roles are ignored
// rather than tripping an out-of-bounds panic on a metrics call.
func (r Role) valid() bool { return r >= 0 && r < numRoles }

// AddFiltering charges n filtering operations to the given role.
func (l *Load) AddFiltering(r Role, n int) {
	if !r.valid() {
		return
	}
	l.filtering[r].Add(int64(n))
}

// Filtering returns the filtering load charged to role r.
func (l *Load) Filtering(r Role) int64 {
	if !r.valid() {
		return 0
	}
	return l.filtering[r].Value()
}

// TotalFiltering returns the node's TF over all roles.
func (l *Load) TotalFiltering() int64 {
	var n int64
	for i := range l.filtering {
		n += l.filtering[i].Value()
	}
	return n
}

// Reset clears all counters.
func (l *Load) Reset() {
	for i := range l.filtering {
		l.filtering[i].Reset()
	}
}
