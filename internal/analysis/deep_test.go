package analysis

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/workload"
)

func mustBaseSrc(t *testing.T, src string) *objectbase.Base {
	t.Helper()
	b, err := parser.ObjectBase(src, "base.vlg")
	if err != nil {
		t.Fatalf("base parse: %v", err)
	}
	return b
}

func deepString(t *testing.T, src string, opts Options) ([]Diagnostic, *Facts) {
	t.Helper()
	ds, f, p := DeepSource(src, "t.vlg", opts)
	if p == nil {
		t.Fatalf("program did not parse: %v", ds)
	}
	return ds, f
}

const paperBase = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`

// TestDeepCleanEnterprise: the paper's Figure 2 program is clean under the
// full deep tier, and the facts carry the expected strata, classes and
// sorts.
func TestDeepCleanEnterprise(t *testing.T) {
	b := mustBaseSrc(t, paperBase)
	ds, f := deepString(t, workload.EnterpriseProgram, Options{Base: b})
	if len(ds) != 0 {
		t.Fatalf("unexpected diagnostics: %v", ds)
	}
	if len(f.Rules) != 4 {
		t.Fatalf("rule facts = %+v", f.Rules)
	}
	wantStrata := []int{0, 0, 1, 2}
	for i, w := range wantStrata {
		if f.Rules[i].Stratum != w {
			t.Errorf("rule %d stratum = %d, want %d", i, f.Rules[i].Stratum, w)
		}
		if f.Rules[i].Recursive {
			t.Errorf("rule %d marked recursive", i)
		}
	}
	if len(f.Strata) != 3 {
		t.Fatalf("strata facts = %+v", f.Strata)
	}
	// rule1's E is an empl receiver; its S is numeric (sal).
	var sawE, sawS bool
	for _, vf := range f.Rules[0].Vars {
		switch vf.Var {
		case "E":
			sawE = true
			if len(vf.Classes) != 1 || vf.Classes[0] != "empl" {
				t.Errorf("E classes = %v", vf.Classes)
			}
		case "S":
			sawS = true
			if len(vf.Sorts) != 1 || vf.Sorts[0] != "num" {
				t.Errorf("S sorts = %v", vf.Sorts)
			}
		}
	}
	if !sawE || !sawS {
		t.Fatalf("missing var facts: %+v", f.Rules[0].Vars)
	}
	if !f.Base.Supplied || f.Base.Objects == 0 || len(f.Base.Classes) == 0 {
		t.Errorf("base facts = %+v", f.Base)
	}
	// Every rule has a plan with at least one generator.
	for i, rf := range f.Rules {
		if len(rf.Literals) == 0 || rf.Cost <= 0 {
			t.Errorf("rule %d facts = %+v", i, rf)
		}
	}
}

// TestDeepPaperProgramsClean: all three paper programs are deep-clean
// without a base too.
func TestDeepPaperProgramsClean(t *testing.T) {
	for name, src := range map[string]string{
		"enterprise": workload.EnterpriseProgram,
		"salary":     workload.SalaryRaiseProgram,
		"ancestors":  workload.AncestorsProgram,
	} {
		ds, f := deepString(t, src, Options{})
		if len(ds) != 0 {
			t.Errorf("%s: unexpected diagnostics: %v", name, ds)
		}
		if f == nil {
			t.Errorf("%s: nil facts", name)
		}
	}
}

// TestNoClassDiagnostic: a receiver whose required method set no class
// carries gets V0301; pinning via isa participates.
func TestNoClassDiagnostic(t *testing.T) {
	b := mustBaseSrc(t, `
phil.isa -> empl / sal -> 4000.
rex.isa -> dog / barks -> yes.
`)
	ds, f := deepString(t, "r: ins[X].flag -> on <- X.isa -> empl, X.barks -> yes.\n", Options{Base: b})
	found := false
	for _, d := range ds {
		if d.Code == CodeNoClass && d.Severity == Warning && strings.Contains(d.Message, "barks") {
			found = true
			if !d.Pos.IsValid() {
				t.Errorf("V0301 without position: %+v", d)
			}
		}
	}
	if !found {
		t.Fatalf("no V0301 in %v", ds)
	}
	// The var facts mark X empty.
	for _, vf := range f.Rules[0].Vars {
		if vf.Var == "X" && (!vf.Empty || len(vf.Classes) != 0) {
			t.Errorf("X facts = %+v", vf)
		}
	}
	// The same methods on separate receivers are fine.
	ds, _ = deepString(t, "r: ins[X].flag -> on <- X.isa -> empl, Y.barks -> yes, X.sal -> S, S > 0, Y.exists -> Y.\n", Options{Base: b})
	for _, d := range ds {
		if d.Code == CodeNoClass {
			t.Errorf("unexpected V0301: %v", d)
		}
	}
}

// TestNoClassGroundReceiver: a path-0 read on a ground object the base
// cannot answer is V0301 (base states are immutable).
func TestNoClassGroundReceiver(t *testing.T) {
	b := mustBaseSrc(t, `phil.isa -> empl / sal -> 4000. rex.barks -> yes.`)
	ds, _ := deepString(t, "r: ins[phil].flag -> on <- phil.barks -> yes.\n", Options{Base: b})
	found := false
	for _, d := range ds {
		if d.Code == CodeNoClass && strings.Contains(d.Message, "phil has no barks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("no ground-receiver V0301 in %v", ds)
	}
	// A read the base answers stays silent.
	ds, _ = deepString(t, "r: ins[rex].flag -> on <- rex.barks -> yes.\n", Options{Base: b})
	for _, d := range ds {
		if d.Code == CodeNoClass {
			t.Errorf("unexpected V0301: %v", d)
		}
	}
}

// TestSortClashDiagnostic: a variable read as a string but compared
// numerically has an empty sort set — V0302.
func TestSortClashDiagnostic(t *testing.T) {
	b := mustBaseSrc(t, `phil.isa -> empl / name -> "Phil".`)
	ds, f := deepString(t, "r: ins[X].big -> yes <- X.name -> N, N > 10.\n", Options{Base: b})
	found := false
	for _, d := range ds {
		if d.Code == CodeSortClash && d.Witness == "N" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no V0302 in %v", ds)
	}
	for _, vf := range f.Rules[0].Vars {
		if vf.Var == "N" && (!vf.Empty || len(vf.Sorts) != 0) {
			t.Errorf("N facts = %+v", vf)
		}
	}
	// Equality propagation: M = N pulls M empty too, but only N anchors a
	// second diagnostic per its own occurrences; just assert no panic and
	// that the clean variant is silent.
	ds, _ = deepString(t, "r: ins[X].big -> yes <- X.sal -> S, S > 10.\n",
		Options{Base: mustBaseSrc(t, `phil.sal -> 4000.`)})
	for _, d := range ds {
		if d.Code == CodeSortClash {
			t.Errorf("unexpected V0302: %v", d)
		}
	}
}

// TestModRetypeDiagnostic: a mod head writing a sort disjoint from the
// method's established sorts is V0303.
func TestModRetypeDiagnostic(t *testing.T) {
	b := mustBaseSrc(t, `phil.sal -> 4000.`)
	ds, _ := deepString(t, "r: mod[X].sal -> (S, frozen) <- X.sal -> S.\n", Options{Base: b})
	found := false
	for _, d := range ds {
		if d.Code == CodeModRetype && d.Witness == "sal" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no V0303 in %v", ds)
	}
	// A numeric rewrite is consistent.
	ds, _ = deepString(t, "r: mod[X].sal -> (S, S') <- X.sal -> S, S' = S + 1.\n", Options{Base: b})
	for _, d := range ds {
		if d.Code == CodeModRetype {
			t.Errorf("unexpected V0303: %v", d)
		}
	}
}

// TestNonlinearRecursionDiagnostic: transitive closure written with two
// recursive literals is V0304; the paper's linear ancestors closure is not.
func TestNonlinearRecursionDiagnostic(t *testing.T) {
	src := `
base: ins[X].anc -> P <- X.isa -> person / parents -> P.
step: ins[X].anc -> P <- ins(X).anc -> A, ins(A).anc -> P.
`
	ds, f := deepString(t, src, Options{})
	found := false
	for _, d := range ds {
		if d.Code == CodeNonlinearRecursion && d.Rule == "step" {
			found = true
			if !strings.Contains(d.Message, "ins(A)") || !strings.Contains(d.Message, "ins(X)") {
				t.Errorf("V0304 message = %q", d.Message)
			}
		}
	}
	if !found {
		t.Fatalf("no V0304 in %v", ds)
	}
	if !f.Rules[1].Recursive {
		t.Errorf("step not marked recursive: %+v", f.Rules[1])
	}
	// The linear closure is clean (asserted via paper-programs test too).
	ds, f = deepString(t, workload.AncestorsProgram, Options{})
	for _, d := range ds {
		if d.Code == CodeNonlinearRecursion {
			t.Errorf("unexpected V0304: %v", d)
		}
	}
	if !f.Rules[1].Recursive {
		t.Errorf("ancestors step not marked recursive")
	}
}

// TestCrossProductDiagnostic: a join order stuck with two unrelated
// generators is reported as an info.
func TestCrossProductDiagnostic(t *testing.T) {
	b := mustBaseSrc(t, `
o1.a -> u. o2.a -> u.
p1.b -> v. p2.b -> v.
`)
	ds, _ := deepString(t, "r: ins[X].pair -> Y <- X.a -> u, Y.b -> v.\n", Options{Base: b})
	found := false
	for _, d := range ds {
		if d.Code == CodeCrossProduct && d.Severity == Info {
			found = true
		}
	}
	if !found {
		t.Fatalf("no V0305 in %v", ds)
	}
	// Sharing a variable silences it.
	ds, _ = deepString(t, "r: ins[X].pair -> R <- X.a -> u, X.b -> R.\n", Options{Base: b})
	for _, d := range ds {
		if d.Code == CodeCrossProduct {
			t.Errorf("unexpected V0305: %v", d)
		}
	}
}

// TestFactsJSONRoundTrip: the Facts structure survives JSON encode/decode
// unchanged — the contract for /v1/t/{tenant}/check?deep=1 consumers.
func TestFactsJSONRoundTrip(t *testing.T) {
	b := mustBaseSrc(t, paperBase)
	_, f := deepString(t, workload.EnterpriseProgram, Options{Base: b})
	enc, err := json.Marshal(f)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Facts
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !reflect.DeepEqual(*f, back) {
		t.Fatalf("round trip changed facts:\n%+v\nvs\n%+v", *f, back)
	}
}

// TestDeepNeverAddsErrors: the deep tier only adds warnings/infos, so the
// engine accept/reject line is exactly where Program put it.
func TestDeepNeverAddsErrors(t *testing.T) {
	srcs := []string{
		workload.EnterpriseProgram,
		workload.AncestorsProgram,
		"r: ins[X].m -> Y <- X.t -> Z.",
		"a: ins[X].m -> v <- X.t -> w, !ins(X).m -> v.",
		"wipe: del[mod(E)].* <- mod(E).flag -> on.",
		"r: mod[X].m -> v <- X.m -> v.",
		"r: ins[any(X)].m -> v <- X.exists -> X.",
	}
	for _, src := range srcs {
		base, p := Source(src, "t.vlg", Options{})
		if p == nil {
			continue
		}
		deep, f := Deep(p, Options{})
		if HasErrors(base) != HasErrors(deep) {
			t.Errorf("error line moved for %q: base %v deep %v", src, base, deep)
		}
		if f == nil || len(f.Rules) != len(p.Rules) {
			t.Errorf("facts shape for %q: %+v", src, f)
		}
	}
}

// TestDeepUnstratifiable: without a stratification the facts degrade
// gracefully (stratum -1, no strata rollup) and deep still runs.
func TestDeepUnstratifiable(t *testing.T) {
	src := "r1: ins[X].p -> a <- !ins(X).q -> a.\nr2: ins[X].q -> a <- !ins(X).p -> a.\n"
	ds, f := deepString(t, src, Options{})
	if !HasErrors(ds) {
		t.Fatalf("expected V0002 errors, got %v", ds)
	}
	for _, rf := range f.Rules {
		if rf.Stratum != -1 {
			t.Errorf("stratum = %d, want -1", rf.Stratum)
		}
	}
	if len(f.Strata) != 0 {
		t.Errorf("strata rollup on unstratifiable program: %+v", f.Strata)
	}
}

// TestIndexlessRecursionDiagnostic: a recursive rule whose plan never
// probes an index is flagged V0306; the ancestors closure, whose second
// literal runs as a bound-base lookup, is clean.
func TestIndexlessRecursionDiagnostic(t *testing.T) {
	src := `
seed: ins[X].r -> y <- X.isa -> c.
loop: ins[X].r -> z <- ins(X).r -> Y.
`
	ds, f := deepString(t, src, Options{})
	found := false
	for _, d := range ds {
		if d.Code == CodeIndexlessRecursion {
			if d.Rule != "loop" {
				t.Errorf("V0306 on %q, want loop", d.Rule)
			}
			if d.Severity != Info {
				t.Errorf("V0306 severity = %v, want info", d.Severity)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("no V0306 in %v", ds)
	}
	if !f.Rules[1].Recursive {
		t.Errorf("loop not marked recursive")
	}
	for _, lf := range f.Rules[1].Literals {
		if lf.Access == "" && lf.Kind == "generator" {
			t.Errorf("generator %q missing access path", lf.Literal)
		}
	}
	ds, _ = deepString(t, workload.AncestorsProgram, Options{})
	for _, d := range ds {
		if d.Code == CodeIndexlessRecursion {
			t.Errorf("unexpected V0306: %v", d)
		}
	}
}
