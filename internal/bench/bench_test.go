package bench

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateExperiments = flag.Bool("update-experiments", false,
	"rewrite testdata/E<n>.txt from the experiments' tables")

// TestAllExperimentsPass runs the suite, requires every correctness check
// column to read PASS, and holds each table, cell for cell, against its
// golden file testdata/E<n>.txt. The tables hold counts and checks only, so
// any engine change that moves a count — fired updates, iterations, strata,
// the facts E8 copies — fails here, whether or not a check column sees it.
// Run `go test ./internal/bench -run TestAllExperimentsPass
// -update-experiments` to regenerate the goldens after a deliberate change,
// and review the diff.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; skipped with -short")
	}
	for _, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			got := tbl.String()
			if len(tbl.Rows) == 0 || strings.Contains(got, "FAIL") {
				t.Errorf("%s reports FAIL or has no rows:\n%s", e.ID, got)
			}
			golden := filepath.Join("testdata", e.ID+".txt")
			if *updateExperiments {
				if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update-experiments to create it)", err)
			}
			if got != string(want) {
				t.Errorf("%s differs from %s\n got:\n%s\nwant:\n%s", e.ID, golden, got, want)
			}
		})
	}
}

// TestRegistryOrder: the suite is E1 to E9, in order, each with a title.
func TestRegistryOrder(t *testing.T) {
	exps := All()
	if len(exps) != 9 {
		t.Fatalf("%d experiments, want 9", len(exps))
	}
	for i, e := range exps {
		if want := "E" + string(rune('1'+i)); e.ID != want || e.Title == "" || e.Run == nil {
			t.Errorf("experiment %d = %s %q, want %s with a title and a run", i, e.ID, e.Title, want)
		}
	}
}

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		ID:     "T",
		Title:  "test",
		Note:   "a note",
		Header: []string{"col", "longer_column"},
	}
	tbl.AddRow("a", 1)
	tbl.AddRow("bbbb", 22)
	want := `T — test
  note: a note
  col   longer_column
  ----  -------------
  a     1
  bbbb  22
`
	if got := tbl.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}

func TestPass(t *testing.T) {
	if pass(true) != "PASS" || pass(false) != "FAIL" {
		t.Errorf("pass broken")
	}
}

func TestSum(t *testing.T) {
	if sum([]int{1, 2, 3}) != 6 || sum(nil) != 0 {
		t.Errorf("sum broken")
	}
}
