// Package bench implements the experiment suite of EXPERIMENTS.md: one
// experiment per figure/worked example of the paper plus the
// characterization and ablation studies DESIGN.md lists (E1-E12). The
// cmd/verlog-bench binary runs them and prints their tables; bench_test.go
// at the module root exposes each as a testing.B benchmark.
package bench

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strings"
	"time"
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

var registry = map[string]Experiment{}

func register(e Experiment) {
	registry[e.ID] = e
}

// All returns every registered experiment, ordered by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		// E2 < E11 requires numeric comparison of the suffix.
		return expNum(out[i].ID) < expNum(out[j].ID)
	})
	return out
}

func expNum(id string) int {
	n := 0
	for _, c := range id {
		if c >= '0' && c <= '9' {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, bool) {
	e, ok := registry[id]
	return e, ok
}

// timed measures one execution of fn, collecting garbage first so that
// allocation debt from earlier experiments does not distort the sample.
func timed(fn func() error) (time.Duration, error) {
	runtime.GC()
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// timedBest measures fn rounds times and returns the fastest sample — the
// usual way to suppress scheduler and GC noise in comparative tables.
func timedBest(rounds int, fn func() error) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < rounds; i++ {
		d, err := timed(fn)
		if err != nil {
			return d, err
		}
		if i == 0 || d < best {
			best = d
		}
	}
	return best, nil
}

// ms renders a duration in milliseconds with three decimals.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d.Nanoseconds())/1e6)
}

// ratio renders a/b with two decimals, or "-" when b is zero.
func ratio(a, b time.Duration) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.2f", float64(a)/float64(b))
}

// pass renders a boolean check.
func pass(ok bool) string {
	if ok {
		return "PASS"
	}
	return "FAIL"
}
