package exp

import (
	"fmt"
	"io"
	"sort"
)

// Experiment is one table of the evaluation, said once: its id (the thesis
// figure or table number), the caption it prints, a note on reconstruction
// caveats and expected shape, its header, and rows, which runs its cells at
// a scale and returns one row per line of the table.
type Experiment struct {
	ID, Title, Note string
	Header          []string
	rows            func(Scale) [][]string
}

// Run regenerates the experiment's table at scale sc.
func (e Experiment) Run(sc Scale) *Table { return &Table{e, e.rows(sc)} }

// All returns every experiment in thesis order.
func All() []Experiment {
	return []Experiment{
		{"T4.1", "A comparison of all algorithms",
			"static protocol properties + measured messages (phase 1: 8 R-tuples + 1 S-tuple; phase 2: same 8 R-tuples again)",
			[]string{"algorithm", "rewriters/query", "eval stores tuples", "eval stores rewrites",
				"notif created on", "T2 queries", "query msgs", "join msgs", "repeat join msgs", "notifications"}, table41},
		{"F4.8", "Recursive vs. iterative design for the multisend function",
			"expected shape: recursive < iterative, gap grows with k (Section 2.3)",
			[]string{"N", "k", "iterative hops", "recursive hops", "ratio"}, fig48},
		{"F5.2", "Traffic cost and JFRT effect",
			"expected shape: JFRT cuts join-message hops toward 1 per reindex; DAI-T lowest steady-state traffic",
			[]string{"algorithm", "JFRT", "hops/tuple", "msgs/tuple", "join hops", "notifications"}, fig52},
		{"F5.3", "Effect of the number of indexed queries in network traffic",
			"expected shape: hops/tuple grows with queries for SAI/DAI-Q; DAI-T flattens after warm-up",
			[]string{"algorithm", "queries", "hops/tuple", "join msgs/tuple"}, fig53},
		{"F5.4", "Comparison of the index attribute selection strategies in SAI",
			"bos ratio 4 (left stream 4x hotter); expected shape: min-rate cheapest; random pays a grouping penalty (same-condition queries split across rewriters)",
			[]string{"strategy", "hops/tuple", "join msgs/tuple", "evaluators used"}, fig54},
		{"F5.5", "Effect of the bos ratio",
			"bos = left:right stream ratio (DESIGN.md §2); expected shape: min-rate advantage grows with imbalance",
			[]string{"bos", "random hops/tuple", "min-rate hops/tuple", "savings"}, fig55},
		{"F5.6", "Effect of the replication scheme in filtering load distribution",
			"rewriter-role TF only; expected shape: max and gini fall, used nodes rise with k",
			append([]string{"replication k"}, distHeader...), fig56},
		{"F5.7", "Effect of the replication scheme in storage load distribution",
			"rewriter-role TS only; expected shape: total grows k-fold, spread over k-times the nodes",
			append([]string{"replication k", "total"}, distHeader...), fig57},
		{"F5.8", "Effect of window size and installed queries in total evaluator filtering load",
			"expected shape: total TF grows with both window length and query count",
			[]string{"window", "queries", "total evaluator TF"}, fig58},
		{"F5.9", "Effect of window size and installed queries in total evaluator storage load",
			"expected shape: total TS grows with window length (resident tuples) and query count (stored rewrites)",
			[]string{"window", "queries", "total evaluator TS"}, fig59},
		{"F5.10", "TF and TS load distribution comparison for all algorithms",
			"expected shape: DAI better spread than SAI; DAI-V the most concentrated DAI (unprefixed values) but lowest traffic",
			[]string{"algorithm", "TF used", "TF max", "TF gini", "TS used", "TS max", "TS gini"}, fig510},
		{"F5.11", "Total filtering and storage load distribution for the two-level indexing algorithms",
			"expected shape: DAI-T shifts storage to evaluators (stored rewrites) and minimizes evaluator filtering on reindex",
			[]string{"algorithm", "rewriter TF", "evaluator TF", "rewriter TS", "evaluator TS"}, fig511},
		{"F5.12", "Effect in filtering load distribution of increasing the frequency of incoming tuples",
			"expected shape: mean/max scale with tuple count, gini roughly stable",
			append([]string{"algorithm", "tuples"}, distHeader...), fig512},
		{"F5.13", "Effect in filtering load distribution of increasing the number of indexed queries",
			"expected shape: load grows with queries, spread over more evaluators",
			append([]string{"algorithm", "queries"}, distHeader...), fig513},
		{"F5.14", "Effect in filtering load distribution of increasing the network size",
			"expected shape: mean and max per-node load fall as N grows (scalability)",
			append([]string{"algorithm", "N"}, distHeader...), fig514},
		{"F5.15", "Effect in filtering load distribution of increasing the network size for the most loaded nodes",
			"expected shape: the hottest node's absolute load falls as N grows",
			[]string{"algorithm", "N", "max TF", "top1% share", "top10% share"}, fig515},
		{"F5.16", "Effect in filtering load distribution of DAI-V of increasing the network size, queries or tuples",
			"type-T2 workload; expected shape: graceful scaling on every dimension",
			append([]string{"sweep", "value"}, distHeader...), fig516},
		{"X4.5", "DAI-V keyed extension: traffic vs load-spread ablation",
			"expected shape: keyed/grouped traffic factor grows with queries; keyed spreads TF over more nodes",
			[]string{"queries", "grouped join hops/tuple", "keyed join hops/tuple", "factor", "grouped TF used", "keyed TF used"}, x45},
		{"X7.1", "Multi-way chain joins: traffic and load vs chain arity",
			"SAI pipeline generalization; expected shape: hops/tuple grows with k, completions need k matching stages",
			[]string{"k", "hops/tuple", "mjoin msgs", "TF gini", "TF used", "notifications"}, x71},
	}
}

// Lookup finds one experiment by id (case-sensitive, e.g. "F5.2").
func Lookup(idStr string) (Experiment, error) {
	var ids []string
	for _, e := range All() {
		if e.ID == idStr {
			return e, nil
		}
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (available: %v)", idStr, ids)
}

// Report runs the experiments at scale sc and writes to w what
// `joinsim -exp ...` prints on stdout: the scale header, then every table,
// calling done (if non-nil) after each. Those bytes are a pure function of
// code and scale at any parallelism — testdata/ci.golden is Report(All())
// at CI() — so wall times are the caller's to take and print elsewhere.
func Report(w io.Writer, sc Scale, todo []Experiment, done func(Experiment, *Table)) {
	fmt.Fprintf(w, "scale: nodes=%d queries=%d tuples=%d seed=%d\n\n", sc.Nodes, sc.Queries, sc.Tuples, sc.Seed)
	for _, e := range todo {
		tab := e.Run(sc)
		tab.Print(w)
		fmt.Fprintln(w)
		if done != nil {
			done(e, tab)
		}
	}
}
