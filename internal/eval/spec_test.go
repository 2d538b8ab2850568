package eval

import (
	"errors"
	"fmt"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/spec"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// refusals are the spec's reasons to refuse an evaluation, in the order
// classOf tries them.
var refusals = []error{spec.ErrUnsafe, spec.ErrUnstratifiable, spec.ErrBadStrata, spec.ErrLinearity, spec.ErrIterationLimit, spec.ErrEvaluation}

// classOf files an error of the engine or of the spec under the spec's
// reasons to refuse; nil is success.
func classOf(err error) error {
	var (
		lin *LinearityError
		lim *IterationLimitError
		nse *strata.NotStratifiableError
		ce  *CompileError
	)
	for _, class := range refusals {
		if errors.Is(err, class) {
			return class
		}
	}
	switch {
	case err == nil:
		return nil
	case errors.As(err, &lin):
		return spec.ErrLinearity
	case errors.As(err, &lim):
		return spec.ErrIterationLimit
	case errors.As(err, &nse):
		return spec.ErrUnstratifiable
	case errors.As(err, &ce):
		return spec.ErrUnsafe
	default:
		return spec.ErrEvaluation
	}
}

// classMismatch is the engine and the spec disagreeing on whether, or why, an
// input is refused.
type classMismatch struct{ engine, spec error }

func (m *classMismatch) Error() string {
	return fmt.Sprintf("the engine says %v, the spec %v", m.engine, m.spec)
}

// mismatch compares an engine error and a spec error by class.
func mismatch(err, werr error) error {
	if classOf(err) != classOf(werr) {
		return &classMismatch{engine: err, spec: werr}
	}
	return nil
}

// sameAsSpec holds the engine against the paper: it runs p on ob with the
// engine (tracing, so that the fired updates are on record) and with the
// spec evaluator, and compares the class of a refusal or else result(P), ob'
// and the set of fired updates. The engine's result and error come back for
// further checks.
func sameAsSpec(ob *objectbase.Base, p *term.Program, opts Options) (*Result, error, error) {
	res, err, want, m := engineAndSpec(ob, p, opts)
	if m != nil || err != nil {
		return res, err, m
	}
	return res, nil, agreesWith(res, want)
}

// engineAndSpec runs p on ob with the engine, traced, and with the spec
// evaluator, and returns what each made of it and, when they disagree on
// whether or why to refuse, the mismatch.
func engineAndSpec(ob *objectbase.Base, p *term.Program, opts Options) (*Result, error, *spec.Outcome, error) {
	opts.Trace = true
	if opts.MaxIterations <= 0 {
		opts.MaxIterations = 200
	}
	in := spec.Facts(obtest.FactSet(ob))
	res, err := Run(ob, p, opts)
	want, werr := spec.Run(in, p, opts.MaxIterations)
	if errors.Is(werr, spec.ErrIterationLimit) && err == nil {
		// The engine skips the iteration that would only confirm a fixpoint
		// when no rule can consume the last delta.
		want, werr = spec.Run(in, p, opts.MaxIterations+1)
	}
	return res, err, want, mismatch(err, werr)
}

// agreesWith compares a traced result of the engine with the spec's outcome
// on the same input: result(P), ob' and the set of fired updates.
func agreesWith(res *Result, want *spec.Outcome) error {
	return errors.Join(
		traceIsASet(res),
		obtest.DiffSets("result(P) and the spec's", obtest.FactSet(res.Result), want.Result),
		obtest.DiffSets("ob' and the spec's", obtest.FactSet(res.Final), want.Final),
		obtest.DiffSets("the fired updates and the spec's", firedSet(res), want.Fired))
}

// runsLikeSpec is sameAsSpec for a program that has to run: a refusal is an
// error too, even one the spec shares, and res is nil exactly when err is not.
func runsLikeSpec(ob *objectbase.Base, p *term.Program, opts Options) (res *Result, err error) {
	res, rerr, err := sameAsSpec(ob, p, opts)
	if err = errors.Join(rerr, err); err != nil {
		return nil, err
	}
	return res, nil
}

// traceIsASet checks what the comparison of fired sets cannot see: within a
// stratum the engine logs an update once, however many rules and iterations
// derive it, and Fired counts the log.
func traceIsASet(res *Result) error {
	type logged struct {
		stratum int
		u       Update
	}
	seen := map[logged]bool{}
	for _, ev := range res.Trace {
		if k := (logged{ev.Stratum, ev.Update}); seen[k] {
			return fmt.Errorf("stratum %d logs %s twice", ev.Stratum+1, ev.Update)
		} else {
			seen[k] = true
		}
	}
	if res.Fired != len(res.Trace) {
		return fmt.Errorf("fired %d, traced %d", res.Fired, len(res.Trace))
	}
	return nil
}

// firedSet reads the set of fired updates off a traced run.
func firedSet(res *Result) map[spec.Update]bool {
	fired := map[spec.Update]bool{}
	for _, ev := range res.Trace {
		u := ev.Update
		fired[spec.Update{Kind: u.Kind, V: u.V, Method: u.Key.Method, Args: u.Key.Args, R: u.R, R2: u.R2}] = true
	}
	return fired
}

// sameQueryAsSpec puts a body to Query and to the spec's enumerator and
// compares the class of a refusal or else the answers, row for row (the spec
// lists an answer once per way of deriving it, Query once).
func sameQueryAsSpec(base *objectbase.Base, body []term.Literal) error {
	got, err := Query(base, body)
	want, werr := spec.Query(spec.Facts(obtest.FactSet(base)), body)
	if m := mismatch(err, werr); m != nil || err != nil {
		return m
	}
	rows, wrows := map[string]bool{}, map[string]bool{}
	for _, b := range got {
		rows[b.String()] = true
	}
	for _, s := range want {
		wrows[Binding(s).String()] = true
	}
	if len(rows) != len(got) {
		return fmt.Errorf("Query repeats an answer: %v", got)
	}
	return obtest.DiffSets("the answers and the spec's", rows, wrows)
}

// baseOf builds a base holding exactly the given facts; unlike
// objectbase.FromFacts it seeds no exists application.
func baseOf(facts spec.Facts) *objectbase.Base {
	b := objectbase.New()
	for f := range facts {
		b.Insert(f)
	}
	return b
}

// evaluated is what either evaluator makes of a program: result(P), ob' and
// the set of fired updates.
type evaluated struct {
	result, final *objectbase.Base
	fired         map[spec.Update]bool
}

// evaluators are the two ways the tests evaluate a program: "naive", the spec
// evaluator applying all of T_P to a plain set of facts, and "semi-naive",
// the engine.
var evaluators = []struct {
	name string
	run  func(ob *objectbase.Base, p *term.Program) (evaluated, error)
}{
	{"naive", func(ob *objectbase.Base, p *term.Program) (evaluated, error) {
		out, err := spec.Run(spec.Facts(obtest.FactSet(ob)), p, 200)
		if err != nil {
			return evaluated{}, err
		}
		return evaluated{baseOf(out.Result), baseOf(out.Final), out.Fired}, nil
	}},
	{"semi-naive", func(ob *objectbase.Base, p *term.Program) (evaluated, error) {
		res, err := Run(ob, p, Options{Trace: true})
		if err != nil {
			return evaluated{}, err
		}
		return evaluated{res.Result, res.Final, firedSet(res)}, nil
	}},
}

// eachEvaluator evaluates p on ob both ways and hands each result(P) and ob'
// to check. Tests that reproduce an example of the paper run through it, so
// the oracle is held to the paper's figures like the engine is.
func eachEvaluator(t *testing.T, ob *objectbase.Base, p *term.Program, check func(t *testing.T, result, final *objectbase.Base)) {
	for _, ev := range evaluators {
		t.Run(ev.name, func(t *testing.T) {
			out, err := ev.run(ob, p)
			if err != nil {
				t.Fatal(err)
			}
			check(t, out.result, out.final)
		})
	}
}
