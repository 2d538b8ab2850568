package verlog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"verlog"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// sameQueryAnswers puts a body to the compiled eval.Query and to the
// interpreter and compares them error for error and row for row.
func sameQueryAnswers(base *objectbase.Base, body []term.Literal) error {
	got, errC := eval.Query(base, body)
	want, errI := eval.QueryInterpreted(base, body)
	if (errC == nil) != (errI == nil) {
		return fmt.Errorf("error disagreement: compiled=%v interpreted=%v", errC, errI)
	}
	if errC == nil && !reflect.DeepEqual(got, want) {
		return fmt.Errorf("answers differ:\ncompiled:    %v\ninterpreted: %v", got, want)
	}
	return nil
}

// TestGoldenCompiledVsInterpreted is the metamorphic counterpart of the
// golden corpus: the compiled match plans and the map-substitution
// interpreter are two implementations of the same T_P operator, so on
// every corpus case they must agree — error for error, fact for fact, in
// both the fixpoint base result(P) and the updated base ob'. Any plan
// compiler bug that changes semantics (rather than speed) shows up here
// as a divergence on whichever corpus case exercises the construct. Queries
// run on the same compiled plans, so the case's query and — a query being a
// rule body without a head — every rule body of its program are answered
// both ways too: on the input, on result(P) and on ob'.
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
			// Parse the base twice: Apply freezes its input, and the two
			// runs must not share index or version state.
			obC, err := verlog.ParseObjectBaseFile(sections["base"], file+":base")
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			obI, err := verlog.ParseObjectBaseFile(sections["base"], file+":base")
			if err != nil {
				t.Fatalf("base: %v", err)
			}

			resC, errC := verlog.Apply(obC, prog)
			resI, errI := verlog.Apply(obI, prog, verlog.WithInterpreted())

			if (errC == nil) != (errI == nil) {
				t.Fatalf("error disagreement: compiled=%v interpreted=%v", errC, errI)
			}
			if errC != nil {
				if errC.Error() != errI.Error() {
					t.Fatalf("error text disagreement:\ncompiled:    %v\ninterpreted: %v", errC, errI)
				}
				return
			}
			if resI.Plan != "interpreted" {
				t.Fatalf("interpreted run reports Plan=%q", resI.Plan)
			}
			if resC.Plan != "compiled" {
				t.Fatalf("compiled run reports Plan=%q", resC.Plan)
			}
			if resC.Fired != resI.Fired {
				t.Errorf("fired-update disagreement: compiled=%d interpreted=%d", resC.Fired, resI.Fired)
			}
			if !resC.Result.Equal(resI.Result) {
				t.Errorf("fixpoint base disagreement\ncompiled:\n%s\ninterpreted:\n%s",
					verlog.FormatObjectBase(resC.Result), verlog.FormatObjectBase(resI.Result))
			}
			if !resC.Final.Equal(resI.Final) {
				t.Errorf("final base disagreement\ncompiled:\n%s\ninterpreted:\n%s",
					verlog.FormatObjectBase(resC.Final), verlog.FormatObjectBase(resI.Final))
			}

			bodies := map[string][]term.Literal{}
			for ri, r := range prog.Rules {
				bodies["body of "+r.Label(ri)] = r.Body
			}
			if q, ok := sections["query"]; ok {
				body, err := parser.Query(strings.TrimSpace(q), file+":query")
				if err != nil {
					t.Fatalf("query: %v", err)
				}
				bodies["query"] = body
			}
			for name, body := range bodies {
				for on, base := range map[string]*objectbase.Base{"the input": obC, "result(P)": resC.Result, "ob'": resC.Final} {
					if err := sameQueryAnswers(base, body); err != nil {
						t.Errorf("%s on %s: %v", name, on, err)
					}
				}
			}
		})
	}
}
