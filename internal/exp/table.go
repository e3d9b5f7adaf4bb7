// Package exp regenerates every table and figure of the paper's evaluation
// chapter. All lists each experiment once — its id, caption, note and
// header, and the function that returns its rows, which run their cells on
// fill; cmd/joinsim prints them and TestAllExperimentsRunAndPrint pins every
// cell at CI scale. The ids follow the thesis List of Figures.
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's rows at one scale.
type Table struct {
	Experiment
	Rows [][]string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// PrintCSV renders the table as CSV for plotting tools: a comment line
// with the id/title, then the header and rows.
func (t *Table) PrintCSV(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# %s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	cw := csv.NewWriter(w)
	if err := cw.Write(t.Header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// f1 formats a float with one decimal, f2 with two, f3 with three.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// d formats an integer cell.
func d[T int | int64](v T) string { return fmt.Sprintf("%d", v) }
