package exp

import (
	"bytes"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
)

// tinyScale keeps the shape-assertion tests fast.
func tinyScale() Scale { return Scale{Nodes: 96, Queries: 120, Tuples: 150, Seed: 1} }

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d); rows=%d", tab.ID, row, col, len(tab.Rows))
	}
	return tab.Rows[row][col]
}

func numCell(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	s := strings.TrimSuffix(cell(t, tab, row, col), "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d)=%q not numeric", tab.ID, row, col, s)
	}
	return v
}

// TestAllExperimentsRunAndPrint holds every cell of every table at CI
// scale to testdata/ci.golden, which is exactly the stdout of
// `joinsim -exp all` (both go through Report): the experiments count hops,
// messages and loads in a seeded simulator, so any difference is a change
// in behaviour, never noise. After an intended one, regenerate the file:
//
//	go run ./cmd/joinsim -exp all > internal/exp/testdata/ci.golden
func TestAllExperimentsRunAndPrint(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are expensive")
	}
	golden, err := os.ReadFile("testdata/ci.golden")
	if err != nil {
		t.Fatal(err)
	}
	var tabs []*Table
	var buf bytes.Buffer
	Report(&buf, CI(), All(), func(_ Experiment, tab *Table) { tabs = append(tabs, tab) })
	// Blank lines separate the blocks: the scale header, then one table
	// each in All() order (and nothing after the last blank line).
	got, want := strings.Split(buf.String(), "\n\n"), strings.Split(string(golden), "\n\n")
	if len(got) != len(want) || got[0] != want[0] {
		t.Fatalf("rendered %d blocks under %q, the golden has %d under %q", len(got), got[0], len(want), want[0])
	}
	for i, e := range All() {
		tab, got, want := tabs[i], got[i+1], want[i+1]
		t.Run(e.ID, func(t *testing.T) {
			if len(tab.Rows) == 0 {
				t.Fatal("no rows")
			}
			for _, row := range tab.Rows {
				if len(row) != len(tab.Header) {
					t.Fatalf("row width %d != header width %d: %v", len(row), len(tab.Header), row)
				}
			}
			if !strings.Contains(got, tab.Title) {
				t.Fatal("Print lost the title")
			}
			gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%d lines, the golden has %d:\n%s", len(gotLines), len(wantLines), got)
			}
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					t.Errorf("line %d:\n   got %q\n  want %q", i+1, gotLines[i], wantLines[i])
				}
			}
		})
	}
}

// TestParallelEquality is the determinism contract of DESIGN.md §8 at the
// table level: one worker and the full budget render the same bytes.
func TestParallelEquality(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are expensive")
	}
	defer SetParallelism(0)
	var seq, par bytes.Buffer
	SetParallelism(1)
	Report(&seq, tinyScale(), All(), nil)
	// At least two workers, so the pool runs even on a one-CPU host.
	SetParallelism(max(runtime.GOMAXPROCS(0), 2))
	Report(&par, tinyScale(), All(), nil)
	if seq.String() != par.String() {
		t.Fatalf("tables differ between 1 and %d workers:\n--- sequential\n%s\n--- parallel\n%s", Parallelism(), &seq, &par)
	}
}

// TestForEachRepanicsACellsPanic: a cell's panic ends no worker early, and
// ForEach raises it in its caller once every cell has run.
func TestForEachRepanicsACellsPanic(t *testing.T) {
	defer SetParallelism(0)
	SetParallelism(2)
	var ran atomic.Int64
	defer func() {
		if r := recover(); r != "cell 3" || ran.Load() != 8 {
			t.Fatalf("recovered %v after %d cells, want cell 3 after 8", r, ran.Load())
		}
	}()
	ForEach(8, func(i int) {
		ran.Add(1)
		if i == 3 {
			panic("cell 3")
		}
	})
}

func TestPrintCSV(t *testing.T) {
	tab := &Table{
		Experiment: Experiment{ID: "X", Title: "demo", Header: []string{"a", "b"}},
		Rows:       [][]string{{"1", "x,y"}, {"2", `quo"te`}},
	}
	var buf bytes.Buffer
	if err := tab.PrintCSV(&buf); err != nil {
		t.Fatalf("PrintCSV: %v", err)
	}
	out := buf.String()
	if !strings.HasPrefix(out, "# X — demo\n") {
		t.Fatalf("missing comment header: %q", out)
	}
	if !strings.Contains(out, `"x,y"`) || !strings.Contains(out, `"quo""te"`) {
		t.Fatalf("CSV quoting wrong: %q", out)
	}
	if lines := strings.Count(out, "\n"); lines != 4 {
		t.Fatalf("line count = %d, want 4", lines)
	}
}

func TestLookup(t *testing.T) {
	e, err := Lookup("F5.2")
	if err != nil || e.ID != "F5.2" {
		t.Fatalf("Lookup: %v", err)
	}
	if _, err := Lookup("F9.9"); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// Shape assertions: the qualitative claims of the paper must hold in the
// regenerated tables (EXPERIMENTS.md records the quantitative outputs).

// tinyTable runs the experiment with the given id at tinyScale.
func tinyTable(t *testing.T, id string) *Table {
	t.Helper()
	e, err := Lookup(id)
	if err != nil {
		t.Fatal(err)
	}
	return e.Run(tinyScale())
}

func TestFig48Shape(t *testing.T) {
	tab := tinyTable(t, "F4.8")
	// For every k >= 16, the recursive design must beat the iterative one.
	for i, row := range tab.Rows {
		k := numCell(t, tab, i, 1)
		if k < 16 {
			continue
		}
		iter, rec := numCell(t, tab, i, 2), numCell(t, tab, i, 3)
		if rec >= iter {
			t.Fatalf("k=%v: recursive %v >= iterative %v\n%v", k, rec, iter, row)
		}
	}
}

func TestFig52Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	tab := tinyTable(t, "F5.2")
	// Rows come in (JFRT off, JFRT on) pairs per algorithm: on must not
	// exceed off in join hops.
	for i := 0; i+1 < len(tab.Rows); i += 2 {
		off := numCell(t, tab, i, 4)
		on := numCell(t, tab, i+1, 4)
		if on > off {
			t.Fatalf("%s: JFRT increased join hops %v -> %v", cell(t, tab, i, 0), off, on)
		}
	}
}

func TestFig55Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	tab := tinyTable(t, "F5.5")
	last := len(tab.Rows) - 1
	// At heavy imbalance min-rate must save traffic over random.
	random := numCell(t, tab, last, 1)
	minRate := numCell(t, tab, last, 2)
	if minRate >= random {
		t.Fatalf("bos=%s: min-rate %v >= random %v", cell(t, tab, last, 0), minRate, random)
	}
}

func TestFig56Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	tab := tinyTable(t, "F5.6")
	// Max rewriter filtering load must fall from k=1 to k=8.
	first := numCell(t, tab, 0, 3)
	lastRow := len(tab.Rows) - 1
	lastMax := numCell(t, tab, lastRow, 3)
	if lastMax >= first {
		t.Fatalf("replication k=8 max %v >= k=1 max %v", lastMax, first)
	}
}

func TestFig514Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("expensive")
	}
	tab := tinyTable(t, "F5.14")
	// Within each algorithm's three rows, mean load must fall as N grows.
	for i := 0; i+2 < len(tab.Rows); i += 3 {
		small := numCell(t, tab, i, 3)   // mean at N/4
		large := numCell(t, tab, i+2, 3) // mean at 4N
		if large >= small {
			t.Fatalf("%s: mean TF did not fall with N: %v -> %v", cell(t, tab, i, 0), small, large)
		}
	}
}
