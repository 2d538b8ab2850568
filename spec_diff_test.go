package verlog_test

import (
	"errors"
	"fmt"
	"go/ast"
	goparser "go/parser"
	"go/token"
	"os"
	"path/filepath"
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
	res, err := verlog.Apply(ob, p, verlog.WithTrace(), verlog.WithMaxIterations(200))
	want, werr := spec.Run(spec.Facts(obtest.FactSet(ob)), p, 200)
	if refusal(err) != refusal(werr) {
		return nil, fmt.Errorf("the engine says %v, the spec %v", err, werr)
	}
	if err != nil {
		return nil, nil
	}
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
	return res, errors.Join(repeat,
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
	ran := 0
	check := func(name string, baseSrc, progSrc string) {
		p, err := verlog.ParseProgramFile(progSrc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ob, err := verlog.ParseObjectBaseFile(baseSrc, name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			checkProgramLikeSpec(t, ob, p, nil)
			checkReplayLikeTracedApply(t, ob, p)
		})
		ran++
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
		check(prog, string(baseSrc), string(progSrc))
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
				check(fmt.Sprintf("%s/program-%d/base-%d", filepath.Dir(file), pi+1, bi+1), baseSrc, progSrc)
			}
		}
	}
	if ran < 10 {
		t.Errorf("only %d (program, base) pairs found under examples/", ran)
	}
}
