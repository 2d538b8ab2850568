package workload

import (
	"testing"

	"verlog/internal/eval"
	"verlog/internal/parser"
	"verlog/internal/safety"
	"verlog/internal/strata"
	"verlog/internal/term"
)

func TestEnterpriseGeneratorDeterministic(t *testing.T) {
	a := EnterpriseSpec{Employees: 50, Seed: 7}.Generate()
	b := EnterpriseSpec{Employees: 50, Seed: 7}.Generate()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("records differ at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := EnterpriseSpec{Employees: 50, Seed: 8}.Generate()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Errorf("different seeds produced identical workloads")
	}
}

func TestEnterpriseBossesAreManagers(t *testing.T) {
	emps := EnterpriseSpec{Employees: 200, ManagerFraction: 0.15, Seed: 3}.Generate()
	isMgr := map[string]bool{}
	for _, e := range emps {
		if e.Manager {
			isMgr[e.Name] = true
		}
	}
	for _, e := range emps {
		if e.Boss != "" && !isMgr[e.Boss] {
			t.Fatalf("boss %s of %s is not a manager", e.Boss, e.Name)
		}
		if e.Salary < 1000 || e.Salary >= 5000 {
			t.Errorf("salary %d out of range", e.Salary)
		}
	}
}

func TestEnterpriseBaseRunsProgram(t *testing.T) {
	spec := EnterpriseSpec{Employees: 60, Seed: 11}
	ob := spec.ObjectBase()
	p, err := parser.Program(EnterpriseProgram, "enterprise.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := safety.Program(p); err != nil {
		t.Fatalf("safety: %v", err)
	}
	res, err := eval.Run(ob, p, eval.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Every surviving employee's salary is raised: none keeps an original
	// salary below the minimum possible raise.
	lits, _ := parser.Query(`E.isa -> empl, E.sal -> S.`, "q")
	bindings, err := eval.Query(res.Final, lits)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(bindings) == 0 {
		t.Fatalf("no employees survived")
	}
	for _, b := range bindings {
		s := b[term.Var("S")].Rat()
		if s.Compare(term.RatInt(1100)) < 0 { // min salary 1000 * 1.1
			t.Errorf("employee %s salary %s below any possible raise", b[term.Var("E")], s)
		}
	}
}

func TestGenealogyCounts(t *testing.T) {
	spec := GenealogySpec{Generations: 4, Branching: 2, Roots: 3}
	ob := spec.ObjectBase()
	// Persons per root: 1+2+4+8 = 15; 3 roots = 45.
	if got, want := spec.Persons(), 45; got != want {
		t.Fatalf("Persons() = %d, want %d", got, want)
	}
	if got := len(ob.Objects()); got != spec.Persons() {
		t.Errorf("objects = %d, want %d", got, spec.Persons())
	}
	// Ancestor pairs per root: gen g has 2^g persons with g ancestors:
	// 0 + 2 + 8 + 24 = 34; 3 roots = 102.
	if got, want := spec.AncestorPairs(), 102; got != want {
		t.Errorf("AncestorPairs() = %d, want %d", got, want)
	}
}

func TestGenealogyClosureMatchesFormula(t *testing.T) {
	spec := GenealogySpec{Generations: 4, Branching: 2}
	ob := spec.ObjectBase()
	p, _ := parser.Program(AncestorsProgram, "anc.vlg")
	res, err := eval.Run(ob, p, eval.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	lits, _ := parser.Query(`X.anc -> A.`, "q")
	bindings, err := eval.Query(res.Final, lits)
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if got, want := len(bindings), spec.AncestorPairs(); got != want {
		t.Errorf("closure size = %d, want %d", got, want)
	}
}

func TestChainProgram(t *testing.T) {
	src := ChainProgram(4)
	p, err := parser.Program(src, "chain.vlg")
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, src)
	}
	a, err := strata.Stratify(p)
	if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	if a.NumStrata() != 4 {
		t.Fatalf("NumStrata = %d, want 4", a.NumStrata())
	}
	ob := Items(5)
	res, err := eval.Run(ob, p, eval.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Figure 1: item0 went through mod^4, counter 0 -> 4.
	lits, _ := parser.Query(`item0.counter -> C.`, "q")
	bindings, _ := eval.Query(res.Final, lits)
	if len(bindings) != 1 || bindings[0][term.Var("C")] != term.Int(4) {
		t.Errorf("counter = %v, want 4", bindings)
	}
	// The deepest version is mod^4(item0).
	deepest := 0
	for _, v := range res.Result.VersionsOf(term.Sym("item0")) {
		if v.Path.Len() > deepest {
			deepest = v.Path.Len()
		}
	}
	if deepest != 4 {
		t.Errorf("deepest version depth = %d, want 4", deepest)
	}
}

func TestTouchedWorkload(t *testing.T) {
	ob := TouchedSpec{Objects: 200, Methods: 3}.ObjectBase()
	p, err := parser.Program(TouchProgram(25), "touch.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	res, err := eval.Run(ob, p, eval.Options{})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	// Exactly 25% of 200 objects get a mod version.
	touched := 0
	for _, v := range res.Result.Versions() {
		if v.Path.Len() == 1 {
			touched++
		}
	}
	if touched != 50 {
		t.Errorf("touched = %d, want 50", touched)
	}
}

func TestLayeredProgramStratifies(t *testing.T) {
	src := LayeredProgram(64, 4)
	p, err := parser.Program(src, "layered.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := safety.Program(p); err != nil {
		t.Fatalf("safety: %v", err)
	}
	a, err := strata.Stratify(p)
	if err != nil {
		t.Fatalf("stratify: %v", err)
	}
	if a.NumStrata() < 4 {
		t.Errorf("NumStrata = %d, want >= 4", a.NumStrata())
	}
}
