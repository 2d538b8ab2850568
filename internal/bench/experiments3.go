package bench

import (
	"fmt"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// --- E14: join-planner ablation -----------------------------------------------

func init() {
	register(Experiment{
		ID:    "E14",
		Title: "Ablation: statistics-based vs static join ordering",
		Run:   runE14,
	})
}

// runStatic evaluates p with plans in source order: compiled with the
// static planner and handed to the run like cached ones.
func runStatic(ob *objectbase.Base, p *term.Program) (*eval.Result, error) {
	plans, err := eval.Compile(ob, p, true)
	if err != nil {
		return nil, err
	}
	return eval.Run(ob, p, eval.Options{Plans: plans})
}

func runE14() (*Table, error) {
	t := &Table{
		ID:    "E14",
		Title: "join planner (engine ablation)",
		Note:  "the statistics planner starts joins from the most selective index instead of source order; the fixpoint is identical. Gains are bounded by the run's fixed costs (base clone, copies, finalize), which dominate on these workloads",
		Header: []string{
			"workload", "planner", "time_ms", "speedup_vs_static", "same_result",
		},
	}
	// A needle-in-a-haystack rule whose source order leads with the
	// unselective literal: 20000 items, 20 of them special. The static
	// planner scans all items; the statistics planner starts from the
	// 20-entry special index.
	base := workload.TouchedSpec{Objects: 20000, Methods: 2}.ObjectBase()
	needle, err := parser.Program(`
find: ins[X].flagged -> yes <- X.isa -> item, X.special -> yes, X.val -> V, V >= 0.
`, "e14.vlg")
	if err != nil {
		return nil, err
	}
	for i := 0; i < 20; i++ {
		base.Insert(term.NewFact(term.GVID{Object: term.Sym(fmt.Sprintf("obj%d", i*1000))}, "special", term.Sym("yes")))
	}
	var staticRes, statsRes *eval.Result
	staticTime, err := timedBest(3, func() error {
		var err error
		staticRes, err = runStatic(base, needle)
		return err
	})
	if err != nil {
		return nil, err
	}
	statsTime, err := timedBest(3, func() error {
		var err error
		statsRes, err = eval.Run(base, needle, eval.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	same := staticRes.Result.Equal(statsRes.Result) && staticRes.Fired == 20
	t.AddRow("needle 20/20000", "static (source order)", ms(staticTime), "1.00", pass(same))
	t.AddRow("needle 20/20000", "statistics", ms(statsTime), ratio(staticTime, statsTime), pass(same))

	// The enterprise mix, where the gain is diluted across rules.
	ob := workload.EnterpriseSpec{Employees: 4000, ManagerFraction: 0.05, Seed: 33}.ObjectBase()
	p := mustProgram(workload.EnterpriseProgram)
	var eStatic, eStats *eval.Result
	eStaticTime, err := timedBest(3, func() error {
		var err error
		eStatic, err = runStatic(ob, p)
		return err
	})
	if err != nil {
		return nil, err
	}
	eStatsTime, err := timedBest(3, func() error {
		var err error
		eStats, err = eval.Run(ob, p, eval.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	eSame := eStatic.Result.Equal(eStats.Result)
	t.AddRow("enterprise n=4000, 5% managers", "static (source order)", ms(eStaticTime), "1.00", pass(eSame))
	t.AddRow("enterprise n=4000, 5% managers", "statistics", ms(eStatsTime), ratio(eStaticTime, eStatsTime), pass(eSame))
	return t, nil
}
