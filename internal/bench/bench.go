// Package bench implements the paper experiments of EXPERIMENTS.md, one per
// figure or worked example (E1-E9). Each experiment builds a table of counts
// and correctness checks, never of times: the tables are deterministic, and
// the golden test holds each one against testdata/E<n>.txt. The times of the
// same runs come from the Go benchmarks BenchmarkE1…E9 in bench_test.go at
// the module root. The cmd/verlog-bench binary prints the tables and turns
// `go test -bench` output into JSON.
package bench

import (
	"fmt"
	"io"
	"strings"
)

// Table is one experiment's result table.
type Table struct {
	ID     string
	Title  string
	Note   string // expected shape, with the paper reference
	Header []string
	Rows   [][]string
}

// AddRow appends a row; cells are formatted with fmt.Sprint.
func (t *Table) AddRow(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = fmt.Sprint(c)
	}
	t.Rows = append(t.Rows, row)
}

// Fprint renders the table with aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "  note: %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		b.WriteString("  ")
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var b strings.Builder
	t.Fprint(&b)
	return b.String()
}

// Experiment is one runnable experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns the experiments in order, E1 to E9.
func All() []Experiment {
	return []Experiment{
		{"E1", "Section 2.1 salary raise: one modify per employee, scaling", runE1},
		{"E2", "Figure 2 / Section 2.3 enterprise update (exact trace + scaling)", runE2},
		{"E3", "Section 2.3 hypothetical raise: would peter be the richest?", runE3},
		{"E4", "Section 2.3 recursive ancestors closure over genealogies", runE4},
		{"E5", "Figure 1: k consecutive update groups build the VID chain", runE5},
		{"E6", "Section 4 stratification: conditions (a)-(d) over program size", runE6},
		{"E7", "Section 5 version-linearity: online check accepts chains, rejects branches", runE7},
		{"E8", "Section 3 frame problem: copy cost scales with touched objects, not base size", runE8},
		{"E9", "Section 2.4 control: versioned vs inflationary vs manually ordered flat rules", runE9},
	}
}

// pass renders a boolean check.
func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
