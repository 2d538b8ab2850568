package eval

import (
	"fmt"
	"math/rand"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestPropertyStrategiesAgreeOnRandomWorkloads: the engine's semi-naive
// evaluation and the spec's naive one (internal/spec) compute the same
// fixpoint, the same updated object base and the same set of fired updates on
// randomized enterprise workloads — and Query and the spec's enumerator the
// same answers to every rule body, on every kind of base (checkQueries).
func TestPropertyStrategiesAgreeOnRandomWorkloads(t *testing.T) {
	p := mustProgram(t, workload.EnterpriseProgram)
	for seed := int64(0); seed < 8; seed++ {
		ob := workload.EnterpriseSpec{Employees: 60, Seed: seed}.ObjectBase()
		res, err := runsLikeSpec(ob, p, Options{})
		for _, r := range p.Rules {
			if err == nil {
				err = checkQueries(ob, res, r.Body)
			}
		}
		if err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}

// TestPropertyStrategiesAgreeOnGenealogies: same property on the recursive
// workload, where semi-naive evaluation differs most from applying all of
// T_P to everything.
func TestPropertyStrategiesAgreeOnGenealogies(t *testing.T) {
	p := mustProgram(t, workload.AncestorsProgram)
	for _, g := range []workload.GenealogySpec{
		{Generations: 3, Branching: 2},
		{Generations: 4, Branching: 3},
		{Generations: 6, Branching: 1},
		{Generations: 2, Branching: 5, Roots: 3},
	} {
		ob := g.ObjectBase()
		res, err := runsLikeSpec(ob, p, Options{})
		for _, r := range p.Rules {
			if err == nil {
				err = checkQueries(ob, res, r.Body)
			}
		}
		if err != nil {
			t.Errorf("%+v: %v", g, err)
		}
	}
}

// TestPropertyFrame: objects not matched by any rule keep exactly their
// original state in ob' — the frame property the copy semantics must
// preserve (Section 3, footnote 4).
func TestPropertyFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		threshold := rng.Intn(100)
		ob := workload.TouchedSpec{Objects: 80, Methods: 3}.ObjectBase()
		p := mustProgram(t, workload.TouchProgram(threshold))
		res := mustRun(t, ob, p, Options{})
		for i := 0; i < 80; i++ {
			o := term.Sym(fmt.Sprintf("obj%d", i))
			v := term.GVID{Object: o}
			touched := i%100 < threshold
			origVal := term.NewFact(v, "val", term.Int(int64(i)))
			newVal := term.NewFact(v, "val", term.Int(int64(i)+1))
			if touched {
				if !res.Final.Has(newVal) || res.Final.Has(origVal) {
					t.Fatalf("trial %d: touched obj%d not updated", trial, i)
				}
			} else {
				if !res.Final.Has(origVal) || res.Final.Has(newVal) {
					t.Fatalf("trial %d: untouched obj%d changed", trial, i)
				}
			}
			// Payload facts survive in both cases.
			if !res.Final.Has(term.NewFact(v, "payload0", term.Int(0))) {
				t.Fatalf("trial %d: obj%d lost payload", trial, i)
			}
		}
	}
}

// TestPropertyIdempotentOnFixpoint: applying a program whose rules only
// fire on initial versions twice in a row yields a second run whose
// versions re-derive deterministically — i.e. applying the raise program
// to its own output raises again by exactly 10% (no hidden state).
func TestPropertyReapplication(t *testing.T) {
	ob := mustBase(t, `henry.isa -> empl / sal -> 100.`)
	p := mustProgram(t, workload.SalaryRaiseProgram)
	res1 := mustRun(t, ob, p, Options{})
	res2 := mustRun(t, res1.Final, p, Options{})
	wantFact(t, res1.Final, `henry.sal -> 110.`)
	wantFact(t, res2.Final, `henry.sal -> 121.`)
}

// TestPropertyFinalizeIdempotent: finalizing an already-final base (all
// versions are plain objects) is the identity.
func TestPropertyFinalizeIdempotent(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		ob := workload.EnterpriseSpec{Employees: 30, Seed: seed}.ObjectBase()
		p := mustProgram(t, workload.EnterpriseProgram)
		res := mustRun(t, ob, p, Options{})
		again := Finalize(res.Final)
		if !again.Equal(res.Final) {
			t.Errorf("seed %d: finalize not idempotent on final base:\n%s\nvs\n%s",
				seed, parser.FormatFacts(res.Final, true), parser.FormatFacts(again, true))
		}
	}
}

// TestPropertyVersionImmutability: once created, the state of a version at
// a lower stratum never changes while higher strata run — the invariant
// condition (a) exists to protect. We check it by recording mod-version
// states after the run and asserting they match what stratum 1 alone
// produces.
func TestPropertyVersionImmutability(t *testing.T) {
	baseSrc := `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`
	full := mustProgram(t, workload.EnterpriseProgram)
	firstStratumOnly := mustProgram(t, `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
`)
	resFull := mustRun(t, mustBase(t, baseSrc), full, Options{})
	resFirst := mustRun(t, mustBase(t, baseSrc), firstStratumOnly, Options{})
	for _, o := range []string{"phil", "bob"} {
		v := term.GV(term.Sym(o), term.Mod)
		a, b := resFull.Result.StateOf(v), resFirst.Result.StateOf(v)
		if a == nil || b == nil || !a.Equal(b) {
			t.Errorf("mod(%s) state changed after its stratum", o)
		}
	}
}
