// Command cqbench is the repository's benchmark: it runs one of five pinned
// workloads on a seed-generated operation stream against the public
// surfaces of the system (cqjoin.Cluster in process, the cqjoind JSON
// protocol over loopback), checks every notification against its own
// oracle, and prints each metric by name with its unit. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed of the operation stream")
		seconds  = flag.Int("seconds", 10, "length of the measured phases; op counts are a fixed multiple of it")
		trace    = flag.Int("trace", 0, "1: also run the traced pass and the probes, and report the per-layer metrics")
		out      = flag.String("out", filepath.Join(".bench_build", "out"), "directory for state directories and trace files")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	names := []string{*workload}
	if *workload == "all" {
		names = names[:0]
		for _, s := range specs {
			names = append(names, s.name)
		}
	}
	ok := true
	for _, name := range names {
		s, err := specByName(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "cqbench:", err)
			os.Exit(2)
		}
		res, err := measure(s, *seed, *seconds, *trace != 0, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cqbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		report(os.Stdout, res, *seed, *seconds, *out)
		ok = ok && res.failed == 0
		runtime.GC()
		debug.FreeOSMemory() // the next workload starts from a small heap
	}
	if !ok {
		os.Exit(1)
	}
}

// report prints the run for a reader and then, as the last line, for the
// driver.
func report(w io.Writer, res *result, seed int64, seconds int, out string) {
	fmt.Fprintf(w, "# cqbench workload=%s seed=%d seconds=%d go=%s GOMAXPROCS=%d nproc=%d clients=%d state-fs=%s\n",
		res.workload, seed, seconds, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), clientCount(), fsType(out))
	phases := make([]string, 0, len(res.phases))
	for name := range res.phases {
		phases = append(phases, name)
	}
	sort.Strings(phases)
	fmt.Fprint(w, "# phases:")
	for _, name := range phases {
		fmt.Fprintf(w, " %s=%.2fs", name, res.phases[name].Seconds())
	}
	fmt.Fprintf(w, " calib=%.2f,%.2f Mhash/s disturbed=%v\n", res.calib[0], res.calib[1], res.disturbed)
	if res.invalid != "" {
		fmt.Fprintf(w, "# INVALID: %s\n", res.invalid)
	}
	v := res.verdict
	failFrac := float64(res.failed) / float64(res.attempted)
	fmt.Fprintf(w, "# oracle: expected=%d ambiguous=%d stale=%d missing=%d duplicate=%d unexpected=%d fail_frac=%g\n",
		v.expected, v.ambiguous, v.stale, v.missing, v.duplicate, v.unexpected, failFrac)
	if res.opErr != nil {
		fmt.Fprintf(w, "# first failed op: %v\n", res.opErr)
	}
	if res.traceFile != "" {
		fmt.Fprintf(w, "# spans: %s\n", res.traceFile)
	}
	shown, printed := res.endToEnd, make(map[string]bool)
	for _, m := range []*metrics{res.endToEnd, res.timing, res.perLayer} {
		if m == nil {
			continue
		}
		for _, name := range m.names {
			if !printed[name] {
				fmt.Fprintf(w, "%-40s %14.4f %s\n", name, m.byName[name].Value, m.byName[name].Unit)
				printed[name] = true
			}
		}
	}
	if res.perLayer != nil {
		shown = res.perLayer
	}
	line, err := json.Marshal(map[string]interface{}{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   shown.byName,
	})
	if err != nil {
		panic(err) // a map of numbers and strings always marshals
	}
	fmt.Fprintf(w, "%s\n", line)
}
