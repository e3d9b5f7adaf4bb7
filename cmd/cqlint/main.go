// Command cqlint is the project's invariant checker: a multichecker that
// runs the internal/analysis suite — the interprocedural call-graph
// analyzers lockorder and goroleak — over the module and exits
// non-zero on any diagnostic. It holds the concurrency invariants no test
// can; DESIGN.md §9 is its ledger.
//
// Usage:
//
//	go run ./cmd/cqlint ./...
//	go run ./cmd/cqlint ./internal/engine ./internal/chord
//	go run ./cmd/cqlint -json ./...
//	go run ./cmd/cqlint -list
//
// Exit codes:
//
//	0  the analyzed packages are clean
//	1  one or more findings (each printed, or emitted as JSON with -json)
//	2  the analysis itself could not run (load, type-check or internal error)
//
// With -json, findings go to stdout as a single JSON array of objects
// with file/line/col/message/analyzer fields (an empty array when clean),
// for editors and CI annotators; human-readable output and the findings
// summary stay on the default path.
//
// cqlint loads and type-checks entirely offline (standard library
// importers only), so it needs no module downloads and no vet tool
// plumbing; CI runs it as its own job next to the ordinary lint job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cqjoin/internal/analysis"
)

// jsonFinding is one diagnostic in -json output.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
	Analyzer string `json:"analyzer"`
}

func main() {
	list := flag.Bool("list", false, "print the analyzer suite and exit")
	dir := flag.String("C", ".", "module root to analyze")
	asJSON := flag.Bool("json", false, "emit findings as a JSON array on stdout")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cqlint [-C moduledir] [-json] [packages]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("%-14s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(*dir, "")
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqlint:", err)
		os.Exit(2)
	}
	pkgs, err := loader.LoadPatterns(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqlint:", err)
		os.Exit(2)
	}
	prog := analysis.NewProg(loader, pkgs)
	diags, err := prog.Run(analysis.All())
	if err != nil {
		fmt.Fprintln(os.Stderr, "cqlint:", err)
		os.Exit(2)
	}
	if *asJSON {
		findings := make([]jsonFinding, 0, len(diags))
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			findings = append(findings, jsonFinding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Message: d.Message, Analyzer: d.Analyzer,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "cqlint:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			pos := loader.Fset.Position(d.Pos)
			fmt.Printf("%s: %s (%s)\n", pos, d.Message, d.Analyzer)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "cqlint: %d finding(s) across %d package(s)\n", len(diags), len(pkgs))
		os.Exit(1)
	}
}
