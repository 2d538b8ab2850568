package eval

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestWorkRepeats holds the work counts (Work) to what they promise: two
// runs of one program on one base count the same, per rule and in total,
// whatever order the maps hand out candidates and updates in and however
// many processors the runtime has. The cases are the programs of E2, E11,
// E24 and E34 at a smaller size, and an accumulator, whose one state passes
// the position index's threshold.
func TestWorkRepeats(t *testing.T) {
	acc := objectbase.New()
	acc.Insert(term.NewFact(term.GVID{Object: term.Sym("acc")}, "start", term.Sym("n0")))
	acc.EnsureObject(term.Sym("acc"))
	for i := range 100 {
		acc.Insert(term.NewFact(term.GVID{Object: term.Sym(fmt.Sprintf("n%d", i))}, "next", term.Sym(fmt.Sprintf("n%d", i+1))))
	}
	genealogy := workload.GenealogySpec{Generations: 5, Branching: 2, Roots: 2}
	closed := mustRun(t, genealogy.ObjectBase(), mustProgram(t, workload.AncestorsProgram), Options{}).Final
	for _, c := range []struct {
		name string
		ob   *objectbase.Base
		prog string
		opts Options
	}{
		{"enterprise", workload.EnterpriseSpec{Employees: 300, Seed: 7}.ObjectBase(), workload.EnterpriseProgram, Options{}},
		{"closed closure", closed, workload.AncestorsProgram, Options{DropResult: true}},
		{"bulk raise", workload.EnterpriseSpec{Employees: 300, Seed: 1}.ObjectBase(), workload.BulkRaiseProgram, Options{}},
		{"accumulator", acc, `
seed: ins[acc].reach -> Y <- acc.start -> X, X.next -> Y.
step: ins[acc].reach -> Y <- ins(acc).reach -> X, X.next -> Y.`, Options{}},
	} {
		t.Run(c.name, func(t *testing.T) {
			ob, p := c.ob.Clone().Freeze(), mustProgram(t, c.prog)
			counts := func() string {
				res := mustRun(t, ob, p, c.opts)
				defer res.Release()
				var b strings.Builder
				// RuleStats come hottest first, by time: put them in rule order.
				slices.SortFunc(res.RuleStats, func(a, b RuleStat) int { return strings.Compare(a.Rule, b.Rule) })
				for _, rs := range res.RuleStats {
					fmt.Fprintf(&b, "%s %+v; ", rs.Rule, rs.Work)
				}
				fmt.Fprintf(&b, "total %+v", res.Stats.Work)
				return b.String()
			}
			want := counts()
			if !strings.Contains(want, "Probes:") || strings.Contains(want, "total {Probes:0 ") {
				t.Fatalf("counted no work: %s", want)
			}
			for _, procs := range []int{1, 2} {
				prev := runtime.GOMAXPROCS(procs)
				for run := range 5 {
					if got := counts(); got != want {
						t.Errorf("GOMAXPROCS %d, run %d counts\n%s\nwant\n%s", procs, run, got, want)
					}
				}
				runtime.GOMAXPROCS(prev)
			}
		})
	}
}
