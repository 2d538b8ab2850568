package verlog_test

import (
	"cmp"
	"errors"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"verlog"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/parser"
	"verlog/internal/safety"
	"verlog/internal/spec"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// refusal files an error of verlog.Apply, of eval.Query or of the spec under
// the spec's reasons to refuse an evaluation; nil is success.
func refusal(err error) error {
	var (
		lin *eval.LinearityError
		lim *eval.IterationLimitError
		nse *strata.NotStratifiableError
		ce  *eval.CompileError
		re  *safety.RuleError
	)
	for _, class := range []error{spec.ErrUnsafe, spec.ErrUnstratifiable, spec.ErrBadStrata, spec.ErrLinearity, spec.ErrIterationLimit, spec.ErrEvaluation} {
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
	case errors.As(err, &ce), errors.As(err, &re):
		return spec.ErrUnsafe
	default:
		return spec.ErrEvaluation
	}
}

// applyLikeSpec applies p to ob with the engine, as the public API does it
// (safety check, then evaluation), and with the spec evaluator, and compares
// the class of a refusal or else result(P), ob' and the set of fired updates.
func applyLikeSpec(ob *objectbase.Base, p *term.Program) (*verlog.Result, error) {
	res, want, err := applyAndSpec(ob, p)
	if res == nil || err != nil {
		return nil, err
	}
	return res, agreesWithSpec(res, want)
}

// applyAndSpec applies p to ob with the engine, traced, and with the spec
// evaluator. A refusal both share is (nil, nil, nil); one they do not share
// is the error.
func applyAndSpec(ob *objectbase.Base, p *term.Program) (*verlog.Result, *spec.Outcome, error) {
	res, err := verlog.Apply(ob, p, verlog.WithTrace(), verlog.WithMaxIterations(200))
	want, werr := spec.Run(spec.Facts(obtest.FactSet(ob)), p, 200)
	if refusal(err) != refusal(werr) {
		return nil, nil, fmt.Errorf("the engine says %v, the spec %v", err, werr)
	}
	if err != nil {
		return nil, nil, nil
	}
	return res, want, nil
}

// agreesWithSpec compares a traced result of the engine with the spec's
// outcome on the same input.
func agreesWithSpec(res *verlog.Result, want *spec.Outcome) error {
	// The trace is the engine's log of fired updates: within a stratum it
	// holds an update once, however many rules and iterations derive it — a
	// repeat the comparison of sets below would not see.
	fired, logged := map[spec.Update]bool{}, map[eval.TraceEvent]bool{}
	var repeat error
	for _, ev := range res.Trace {
		u := ev.Update
		fired[spec.Update{Kind: u.Kind, V: u.V, Method: u.Key.Method, Args: u.Key.Args, R: u.R, R2: u.R2}] = true
		once := eval.TraceEvent{Stratum: ev.Stratum, Update: u}
		if logged[once] {
			repeat = fmt.Errorf("stratum %d logs %s twice", ev.Stratum+1, u)
		}
		logged[once] = true
	}
	return errors.Join(repeat,
		obtest.DiffSets("result(P) and the spec's", obtest.FactSet(res.Result), want.Result),
		obtest.DiffSets("ob' and the spec's", obtest.FactSet(res.Final), want.Final),
		obtest.DiffSets("the fired updates and the spec's", fired, want.Fired))
}

// sameQueryAnswers puts a body to eval.Query and to the spec's enumerator
// and compares them: the class of a refusal, or the answers row for row (the
// spec lists an answer once per way of deriving it, Query once).
func sameQueryAnswers(base *objectbase.Base, body []term.Literal) error {
	got, err := eval.Query(base, body)
	want, werr := spec.Query(spec.Facts(obtest.FactSet(base)), body)
	if refusal(err) != refusal(werr) {
		return fmt.Errorf("Query says %v, the spec %v", err, werr)
	}
	rows, wrows := map[string]bool{}, map[string]bool{}
	for _, b := range got {
		rows[b.String()] = true
	}
	for _, s := range want {
		wrows[eval.Binding(s).String()] = true
	}
	if len(rows) != len(got) {
		return fmt.Errorf("Query repeats an answer: %v", got)
	}
	return obtest.DiffSets("the answers and the spec's", rows, wrows)
}

// checkProgramLikeSpec is the differential every shipped program goes
// through: applied by the engine and by the spec, and — a query being a rule
// body without a head — every rule body (and any further query) answered
// both ways on the input, on result(P) and on ob'.
func checkProgramLikeSpec(t *testing.T, ob *objectbase.Base, p *term.Program, queries map[string][]term.Literal) {
	t.Helper()
	res, err := applyLikeSpec(ob, p)
	if err != nil {
		t.Error(err)
	}
	bases := map[string]*objectbase.Base{"the input": ob}
	if res != nil {
		bases["result(P)"], bases["ob'"] = res.Result, res.Final
	}
	bodies := map[string][]term.Literal{}
	for name, q := range queries {
		bodies[name] = q
	}
	for ri, r := range p.Rules {
		bodies["body of "+r.Label(ri)] = r.Body
	}
	for name, body := range bodies {
		for on, base := range bases {
			if err := sameQueryAnswers(base, body); err != nil {
				t.Errorf("%s on %s: %v", name, on, err)
			}
		}
	}
}

// TestGoldenCompiledVsInterpreted is the differential counterpart of the
// golden corpus: the engine's compiled plans against internal/spec, which
// interprets the paper literally — its truth definitions, T_P, linearity
// check and ob' over a plain set of facts — and shares nothing with package
// eval. On every corpus case the engine
// and the spec must agree — on the class of a rejection, or fact for fact on
// result(P) and ob' and update for update on what fired — and on the answers
// to the case's query and to every rule body put as a query, on the input, on
// result(P) and on ob'. No case is skipped. Each case the engine accepts
// also goes through the provenance differential, journal replay against a
// traced apply (checkReplayLikeTracedApply).
func TestGoldenCompiledVsInterpreted(t *testing.T) {
	files, err := filepath.Glob("testdata/golden/*.txt")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no golden cases found")
	}
	for _, file := range files {
		file := file
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			sections := splitSections(string(raw))
			prog, err := verlog.ParseProgramFile(sections["program"], file+":program")
			if err != nil {
				t.Fatalf("program: %v", err)
			}
			ob, err := verlog.ParseObjectBaseFile(sections["base"], file+":base")
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			queries := map[string][]term.Literal{}
			if q, ok := sections["query"]; ok {
				if queries["query"], err = parser.Query(strings.TrimSpace(q), file+":query"); err != nil {
					t.Fatalf("query: %v", err)
				}
			}
			checkProgramLikeSpec(t, ob, prog, queries)
			checkReplayLikeTracedApply(t, ob, prog)
		})
	}
}

// TestExamplesEngineVsSpec puts every program under examples/ through the
// same two differentials: the .vlg pairs, and every string literal of an
// example's main.go that parses as an update-program, against every literal
// of the same file that parses as an object base.
func TestExamplesEngineVsSpec(t *testing.T) {
	for _, c := range examplePairs(t) {
		t.Run(c.name, func(t *testing.T) {
			checkProgramLikeSpec(t, c.ob, c.p, nil)
			checkReplayLikeTracedApply(t, c.ob, c.p)
		})
	}
}

// programPair is an update-program and a base to apply it to.
type programPair struct {
	name string
	ob   *objectbase.Base
	p    *term.Program
}

// examplePairs lists every program under examples/ with its bases: the .vlg
// pairs, and every string literal of an example's main.go that parses as an
// update-program, against every literal of the same file that parses as an
// object base.
func examplePairs(t *testing.T) []programPair {
	t.Helper()
	var pairs []programPair
	add := func(name string, baseSrc, progSrc string) {
		p, err := verlog.ParseProgramFile(progSrc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ob, err := verlog.ParseObjectBaseFile(baseSrc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pairs = append(pairs, programPair{name, ob, p})
	}
	progs, _ := filepath.Glob("examples/*/update.vlg")
	for _, prog := range progs {
		progSrc, err := os.ReadFile(prog)
		if err != nil {
			t.Fatal(err)
		}
		baseSrc, err := os.ReadFile(filepath.Join(filepath.Dir(prog), "base.vlg"))
		if err != nil {
			t.Fatal(err)
		}
		add(prog, string(baseSrc), string(progSrc))
	}
	mains, _ := filepath.Glob("examples/*/main.go")
	for _, file := range mains {
		f, err := goparser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		var bases, programs []string
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			src, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if p, err := verlog.ParseProgram(src); err == nil && len(p.Rules) > 0 {
				programs = append(programs, src)
			} else if ob, err := verlog.ParseObjectBase(src); err == nil && ob.Size() > 0 {
				bases = append(bases, src)
			}
			return true
		})
		for pi, progSrc := range programs {
			for bi, baseSrc := range bases {
				add(fmt.Sprintf("%s/program-%d/base-%d", filepath.Dir(file), pi+1, bi+1), baseSrc, progSrc)
			}
		}
	}
	if len(pairs) < 10 {
		t.Errorf("only %d (program, base) pairs found under examples/", len(pairs))
	}
	return pairs
}

// goldenPairs lists the cases of the golden corpus whose program and base
// parse.
func goldenPairs(t *testing.T) []programPair {
	t.Helper()
	files, err := filepath.Glob("testdata/golden/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden cases found: %v", err)
	}
	var pairs []programPair
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		sections := splitSections(string(raw))
		p, err := verlog.ParseProgramFile(sections["program"], file+":program")
		if err != nil {
			continue // a rejection case
		}
		ob, err := verlog.ParseObjectBaseFile(sections["base"], file+":base")
		if err != nil {
			t.Fatalf("%s: base: %v", file, err)
		}
		pairs = append(pairs, programPair{filepath.Base(file), ob, p})
	}
	return pairs
}

// renderApplied flattens everything a caller can read off a result but the
// clock: the trace, the changes, the per-rule counts, result(P) and ob'.
func renderApplied(res *verlog.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fired %d iterations %v plan %s\n", res.Fired, res.Iterations, res.Plan)
	for _, ev := range res.Trace {
		fmt.Fprintln(&b, ev)
	}
	d := objectbase.DiffChanges(res.Changes)
	fmt.Fprintf(&b, "added %v\nremoved %v\n", d.Added, d.Removed)
	// RuleStats lists the rules hottest first: by name here, without the time.
	stats := append([]eval.RuleStat(nil), res.RuleStats...)
	for i := range stats {
		stats[i].TimeUS = 0
	}
	slices.SortFunc(stats, func(a, b eval.RuleStat) int {
		return cmp.Or(strings.Compare(a.Rule, b.Rule), cmp.Compare(a.Stratum, b.Stratum), cmp.Compare(a.Fired, b.Fired))
	})
	fmt.Fprintf(&b, "rules %+v\n", stats)
	b.WriteString(parser.FormatFacts(res.Result, true))
	b.WriteString(parser.FormatFacts(res.Final, true))
	return b.String()
}

// TestResultsOweNothingToTheRunsAfter: an evaluation writes into the working
// memory the one before it left behind (eval.Run), so nothing it returns may
// live there. Every golden case and every example program the engine accepts
// is applied, traced, and its Result kept; once the whole corpus has gone
// through — the collector off, so that every run takes what the run before it
// parked — each kept Result still renders byte for byte as it did when its
// apply returned, and still agrees with the spec evaluator's outcome.
func TestResultsOweNothingToTheRunsAfter(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type kept struct {
		name     string
		res      *verlog.Result
		rendered string
		want     *spec.Outcome
	}
	var all []kept
	for _, c := range append(goldenPairs(t), examplePairs(t)...) {
		res, want, err := applyAndSpec(c.ob, c.p)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		if res == nil {
			continue
		}
		if err := agreesWithSpec(res, want); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
		all = append(all, kept{c.name, res, renderApplied(res), want})
	}
	if len(all) < 40 {
		t.Fatalf("only %d results kept", len(all))
	}
	for _, k := range all {
		if got := renderApplied(k.res); got != k.rendered {
			t.Errorf("%s: the result changed after its apply returned:\n%s\n--- was ---\n%s", k.name, got, k.rendered)
		}
		if err := agreesWithSpec(k.res, k.want); err != nil {
			t.Errorf("%s, after the corpus: %v", k.name, err)
		}
	}
}
