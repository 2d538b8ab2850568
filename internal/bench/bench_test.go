package bench

import (
	"strings"
	"testing"
)

// TestAllExperimentsPass runs the whole suite and requires every
// correctness check column to read PASS. This is the repository's
// end-to-end regression: if an engine change breaks any reproduced paper
// result, some table reports FAIL and this test catches it.
func TestAllExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment suite is slow; skipped with -short")
	}
	exps := All()
	if len(exps) != 15 {
		t.Fatalf("registered %d experiments, want 15", len(exps))
	}
	for _, e := range exps {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tbl, err := e.Run()
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if len(tbl.Rows) == 0 {
				t.Fatalf("%s produced no rows", e.ID)
			}
			if strings.Contains(tbl.String(), "FAIL") {
				t.Errorf("%s reports FAIL:\n%s", e.ID, tbl)
			}
		})
	}
}

func TestRegistryOrder(t *testing.T) {
	exps := All()
	for i := 1; i < len(exps); i++ {
		if expNum(exps[i-1].ID) >= expNum(exps[i].ID) {
			t.Errorf("experiments out of order: %s before %s", exps[i-1].ID, exps[i].ID)
		}
	}
	if _, ok := Get("E2"); !ok {
		t.Errorf("Get(E2) failed")
	}
	if _, ok := Get("E99"); ok {
		t.Errorf("Get(E99) should fail")
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
	out := tbl.String()
	for _, want := range []string{"T — test", "note: a note", "col", "longer_column", "bbbb"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
