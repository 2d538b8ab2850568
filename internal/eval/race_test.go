package eval

import (
	"reflect"
	"sync"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// runParallel evaluates p on the frozen head from n goroutines at once and
// returns the results; a failed run fails the test.
func runParallel(t *testing.T, head *objectbase.Base, p *term.Program, opts Options, n int) []*Result {
	t.Helper()
	out := make([]*Result, n)
	var wg sync.WaitGroup
	for g := range out {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := Run(head, p, opts)
			if err != nil {
				t.Errorf("Run %d: %v", g, err)
			}
			out[g] = res
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	return out
}

// TestParallelMatchesSequential: evaluations running in parallel on one
// frozen head — the server's concurrent appliers — each compute exactly
// the sequential fixpoint on every standard workload, and leave the head as
// it was. A derived version holds the very *State of its source until an
// update changes it, so under -race this is also the check that no run
// writes to a state it shares with the head.
func TestParallelMatchesSequential(t *testing.T) {
	workloads := []struct {
		name    string
		base    func() *objectbase.Base
		prog    string
		workers int
	}{
		{"enterprise", workload.EnterpriseSpec{Employees: 150, Seed: 3}.ObjectBase, workload.EnterpriseProgram, 4},
		{"ancestors", workload.GenealogySpec{Generations: 6, Branching: 2}.ObjectBase, workload.AncestorsProgram, 8},
		{"chains", func() *objectbase.Base { return workload.Items(100) }, workload.ChainProgram(5), 3},
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			head := w.base().Freeze()
			p := mustProgram(t, w.prog)
			before := head.Facts()
			seq := mustRun(t, head, p, Options{})
			for _, par := range runParallel(t, head, p, Options{}, w.workers) {
				if !seq.Result.Equal(par.Result) || !seq.Final.Equal(par.Final) {
					t.Errorf("a parallel run's fixpoint differs from the sequential one")
				}
				if seq.Fired != par.Fired {
					t.Errorf("fired: seq %d, par %d", seq.Fired, par.Fired)
				}
			}
			if !reflect.DeepEqual(head.Facts(), before) {
				t.Errorf("the shared head changed")
			}
		})
	}
}

// TestParallelTraceDeterministic: traced runs racing on one head report the
// same trace, event for event.
func TestParallelTraceDeterministic(t *testing.T) {
	head := workload.EnterpriseSpec{Employees: 40, Seed: 9}.ObjectBase().Freeze()
	p := mustProgram(t, workload.EnterpriseProgram)
	first := mustRun(t, head, p, Options{Trace: true}).Trace
	for _, res := range runParallel(t, head, p, Options{Trace: true}, 6) {
		if !reflect.DeepEqual(res.Trace, first) {
			t.Fatalf("trace differs between runs:\n%v\nvs\n%v", res.Trace, first)
		}
	}
}

// TestConcurrentRunSharedBase runs many evaluations concurrently against
// one frozen input base. Each Run builds its own overlays but shares the
// parent's lazily built literal index and VID index through the p0
// read-base shortcut — exactly what the repository does when concurrent
// applies race on one published head. Under -race this checks the shared
// read paths of the compiled executor end to end.
func TestConcurrentRunSharedBase(t *testing.T) {
	base := mustBase(t, `
		e1.isa -> emp.  e1.sal -> 1000.  e1.dept -> d1.
		e2.isa -> emp.  e2.sal -> 2000.  e2.dept -> d1.
		e3.isa -> emp.  e3.sal -> 3000.  e3.dept -> d2.
		d1.isa -> dept. d2.isa -> dept.
	`)
	frozen := base.Freeze()
	p := mustProgram(t, `
		raise: ins[X].sal -> S2 <- X.isa -> emp, X.sal -> S, S2 = S + 500.
		peers: ins[X].peer -> Y <- X.dept -> D, Y.dept -> D, X != Y.
	`)
	cp, err := Compile(frozen, p, false)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				// Alternate plan sources: half the runs compile privately,
				// half reuse the shared pre-compiled plans (the repository
				// plan cache hands one *CompiledProgram to many appliers).
				opts := Options{}
				if (g+round)%2 == 0 {
					opts.Plans = cp
				}
				res, err := Run(frozen, p, opts)
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				if res.Fired != 5 { // 3 raises + 2 peer facts
					t.Errorf("Fired = %d, want 5", res.Fired)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
