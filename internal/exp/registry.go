package exp

import (
	"fmt"
	"io"
	"sort"
)

// Experiment pairs an id with its regeneration function.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) *Table
}

// All returns every experiment in thesis order.
func All() []Experiment {
	return []Experiment{
		{"T4.1", "A comparison of all algorithms", Table41},
		{"F4.8", "Recursive vs. iterative multisend", Fig48},
		{"F5.2", "Traffic cost and JFRT effect", Fig52},
		{"F5.3", "Number of indexed queries vs network traffic", Fig53},
		{"F5.4", "Index attribute selection strategies in SAI", Fig54},
		{"F5.5", "Effect of the bos ratio", Fig55},
		{"F5.6", "Replication effect on filtering load distribution", Fig56},
		{"F5.7", "Replication effect on storage load distribution", Fig57},
		{"F5.8", "Window size and queries vs total evaluator filtering load", Fig58},
		{"F5.9", "Window size and queries vs total evaluator storage load", Fig59},
		{"F5.10", "TF and TS load distribution, all algorithms", Fig510},
		{"F5.11", "Load split between indexing levels", Fig511},
		{"F5.12", "Tuple frequency vs filtering load distribution", Fig512},
		{"F5.13", "Query count vs filtering load distribution", Fig513},
		{"F5.14", "Network size vs filtering load distribution", Fig514},
		{"F5.15", "Network size vs most-loaded nodes", Fig515},
		{"F5.16", "DAI-V scaling on all dimensions", Fig516},
		{"X4.5", "Ablation: keyed DAI-V extension (traffic vs spread)", X45},
		{"X7.1", "Extension: multi-way chain joins vs arity", X71},
	}
}

// Lookup finds one experiment by id (case-sensitive, e.g. "F5.2").
func Lookup(idStr string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == idStr {
			return e, nil
		}
	}
	ids := make([]string, 0, len(All()))
	for _, e := range All() {
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
