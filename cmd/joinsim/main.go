// Command joinsim regenerates the paper's tables and figures from the
// simulator, printing the same rows/series the thesis reports.
//
// Usage:
//
//	joinsim -list
//	joinsim -exp F5.2                 # one experiment at CI scale
//	joinsim -exp all -scale paper     # the full evaluation at thesis scale
//	joinsim -exp F5.10 -nodes 4096 -queries 20000 -tuples 5000
//	joinsim -exp all -parallel 1      # force sequential execution
//
// CI scale (the default) finishes in seconds per experiment; paper scale is
// the thesis set-up (10^4 nodes, 10^5 queries), which does not yet run in
// bounded memory: on an 8 GB host `-exp F5.2 -scale paper` was OOM-killed
// after 55 s at the default -parallel and after 93 s at -parallel 1
// (ROADMAP AG).
//
// Experiments run their independent cells on -parallel workers (default:
// all CPUs); each cell publishes sequentially on its own overlay, so
// -parallel 1 and -parallel 32 print identical tables for the same seed
// (DESIGN.md §8). Standard output carries nothing else — each
// experiment's wall time goes to standard error — so `joinsim -exp all`
// at CI scale is byte for byte internal/exp/testdata/ci.golden, which
// `go test ./internal/exp/` holds it to; after an intended change to a
// figure, regenerate the file with
//
//	go run ./cmd/joinsim -exp all > internal/exp/testdata/ci.golden
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"cqjoin/internal/exp"
)

func main() {
	var (
		expID    = flag.String("exp", "", "experiment id (e.g. F5.2, T4.1) or 'all'")
		list     = flag.Bool("list", false, "list available experiments")
		scale    = flag.String("scale", "ci", "scale preset: ci or paper")
		nodes    = flag.Int("nodes", 0, "override: overlay size")
		queries  = flag.Int("queries", 0, "override: indexed queries")
		tuples   = flag.Int("tuples", 0, "override: inserted tuples")
		seed     = flag.Int64("seed", 0, "override: random seed")
		format   = flag.String("format", "table", "output format: table or csv")
		parallel = flag.Int("parallel", runtime.GOMAXPROCS(0), "worker budget for experiment cells (results are identical at any value)")
	)
	flag.Parse()
	exp.SetParallelism(*parallel)

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-6s %s\n", e.ID, e.Title)
		}
		return
	}
	if *expID == "" {
		fmt.Fprintln(os.Stderr, "joinsim: -exp <id> or -list required")
		flag.Usage()
		os.Exit(2)
	}

	sc := exp.CI()
	if *scale == "paper" {
		sc = exp.Scale{Nodes: 10000, Queries: 100000, Tuples: 20000, Seed: 1}
	} else if *scale != "ci" {
		fmt.Fprintf(os.Stderr, "joinsim: unknown scale %q (want ci or paper)\n", *scale)
		os.Exit(2)
	}
	if *nodes > 0 {
		sc.Nodes = *nodes
	}
	if *queries > 0 {
		sc.Queries = *queries
	}
	if *tuples > 0 {
		sc.Tuples = *tuples
	}
	if *seed != 0 {
		sc.Seed = *seed
	}

	var todo []exp.Experiment
	if *expID == "all" {
		todo = exp.All()
	} else {
		e, err := exp.Lookup(*expID)
		if err != nil {
			fmt.Fprintln(os.Stderr, "joinsim:", err)
			os.Exit(2)
		}
		todo = []exp.Experiment{e}
	}

	switch *format {
	case "table":
		last := time.Now()
		exp.Report(os.Stdout, sc, todo, func(e exp.Experiment, _ *exp.Table) {
			now := time.Now()
			fmt.Fprintf(os.Stderr, "%s (%.1fs)\n", e.ID, now.Sub(last).Seconds())
			last = now
		})
	case "csv":
		for _, e := range todo {
			if err := e.Run(sc).PrintCSV(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "joinsim:", err)
				os.Exit(1)
			}
			fmt.Println()
		}
	default:
		fmt.Fprintf(os.Stderr, "joinsim: unknown format %q (want table or csv)\n", *format)
		os.Exit(2)
	}
}
