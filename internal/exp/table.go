// Package exp regenerates every table and figure of the paper's evaluation
// chapter. Each experiment is a function returning a Table whose rows are
// the series the corresponding thesis figure plots; cmd/joinsim prints them
// and TestAllExperimentsRunAndPrint pins every cell at CI scale. The
// experiment ids follow the thesis List of Figures (see DESIGN.md §3 for
// the full index and the reconstruction caveats).
package exp

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Table is one regenerated experiment: an id matching the thesis figure or
// table number, a caption, a header and data rows.
type Table struct {
	ID     string
	Title  string
	Note   string // reconstruction caveats, expected shape
	Header []string
	Rows   [][]string
}

// AddRow appends one formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
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
func d(v int64) string { return fmt.Sprintf("%d", v) }
