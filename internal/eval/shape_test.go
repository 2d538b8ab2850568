package eval

import (
	"fmt"
	"strings"
	"testing"

	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestProgramShape: programs that differ only in the OIDs of object,
// argument and result positions share a shape, as long as the pattern of
// equal OIDs is the same; expression constants, methods, paths and
// variables are part of the shape, rule labels are not. Past MaxParams
// distinct OIDs the rest stay constants of the shape.
func TestProgramShape(t *testing.T) {
	cases := []struct {
		a, b string
		same bool
	}{
		{`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`, `mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.`, true},
		{`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`, `r: mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.`, true},
		{`ins[E].peer -> e3 <- E.boss -> e7.`, `ins[E].peer -> x <- E.boss -> y.`, true},
		{`ins[E].d@e1 -> 2 <- E.isa -> empl.`, `ins[E].d@e2 -> 3 <- E.isa -> mgr.`, true},
		// e1 twice against e1 and e2: another pattern.
		{`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`, `mod[e1].sal -> (S, S') <- e2.sal -> S, S' = S + 1.`, false},
		{`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`, `mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 2.`, false},
		{`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`, `mod[e1].pay -> (S, S') <- e1.pay -> S, S' = S + 1.`, false},
		{`ins[E].x -> 1 <- E.isa -> empl.`, `ins[F].x -> 1 <- F.isa -> empl.`, false},
		{`ins[E].x -> 1 <- E.isa -> empl.`, `ins[E].x -> 1 <- ins(E).isa -> empl.`, false},
		{`ins[E].x -> 1 <- E.isa -> empl.`, `ins[E].x -> 1 <- !E.isa -> empl, E.y -> Z.`, false},
		{`ins[E].x -> 1 <- E.isa -> empl, X = a.`, `ins[E].x -> 1 <- E.isa -> empl, X = b.`, false},
	}
	for _, c := range cases {
		a, b := mustProgram(t, c.a), mustProgram(t, c.b)
		ha, pa := ProgramShape(a, nil)
		hb, pb := ProgramShape(b, nil)
		if (ha == hb) != c.same {
			t.Errorf("%s / %s: same hash %v, want %v", c.a, c.b, ha == hb, c.same)
		}
		if got := (shapeCmp{pa: pa, pb: pb}).program(a, b); got != c.same {
			t.Errorf("%s / %s: same shape %v, want %v", c.a, c.b, got, c.same)
		}
		if !(shapeCmp{}).program(a, a) {
			t.Errorf("%s is not its own text", c.a)
		}
	}
	// Compared as texts, programs of one shape differ.
	a, b := mustProgram(t, cases[0].a), mustProgram(t, cases[0].b)
	if (shapeCmp{}).program(a, b) {
		t.Errorf("%s and %s compare as one text", cases[0].a, cases[0].b)
	}

	// Seventeen distinct OIDs: the first sixteen are parameters, the last
	// a constant of the shape.
	many := func(last string) *term.Program {
		var b strings.Builder
		for i := 0; i < MaxParams; i++ {
			fmt.Fprintf(&b, "ins[o%d].m -> v <- o%d.isa -> x.\n", i, i)
		}
		fmt.Fprintf(&b, "ins[%s].m -> v <- x.isa -> x.\n", last)
		return mustProgram(t, b.String())
	}
	ha, pa := ProgramShape(many("p"), nil)
	hb, _ := ProgramShape(many("q"), nil)
	if len(pa) != MaxParams || ha == hb {
		t.Errorf("%d parameters, same hash %v; want %d and another shape for another 18th OID", len(pa), ha == hb, MaxParams)
	}
}

// TestShapeWalkAllocatesNothing: finding a program's or a query's plans —
// the shape walk into a caller's buffer and the structural check — is
// allocation-free.
func TestShapeWalkAllocatesNothing(t *testing.T) {
	p := mustProgram(t, workload.BulkRaiseProgram)
	cp, _, err := PlanProgram(workload.EnterpriseSpec{Employees: 20, Seed: 1}.ObjectBase().Freeze(), p, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := mustProgram(t, `ins[x].y -> z <- E.boss -> e7, E.sal -> S.`).Rules[0].Body
	allocs := testing.AllocsPerRun(20, func() {
		var buf [MaxParams]term.OID
		_, params := ProgramShape(p, buf[:0])
		if !cp.Serves(p, params) {
			t.Fatal("the plans do not serve their own program")
		}
		QueryShape(body, buf[:0])
	})
	if allocs != 0 {
		t.Errorf("the shape walk and check allocate %.0f times, want 0", allocs)
	}
}

// TestLiftedArgumentKeysEncodedOnce: a lifted plan resolves a method key
// whose arguments are parameters at run time, once per run, not once per
// candidate: it allocates what the plan with the constants compiled in
// allocates, give or take a few.
func TestLiftedArgumentKeysEncodedOnce(t *testing.T) {
	var src strings.Builder
	for i := 0; i < 400; i++ {
		fmt.Fprintf(&src, "o%d.score@k1 -> 1.\n", i)
	}
	base := mustBase(t, src.String()).Freeze()
	p := mustProgram(t, `ins[X].hit -> yes <- X.score@k1 -> 1.`)
	text, err := Compile(base, p, false)
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := liftedPlans(base, p)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(cp *CompiledProgram) float64 {
		return testing.AllocsPerRun(5, func() {
			if res, err := Run(base, p, Options{Plans: cp}); err != nil || res.Fired != 400 || res.Plan != "cached" {
				t.Fatalf("fired %v, plan %q, %v", res.Fired, res.Plan, err)
			}
		})
	}
	if a, b := allocs(lifted), allocs(text); a > b+8 {
		t.Errorf("the lifted plan allocates %.0f times, the text's %.0f: is the argument key encoded per candidate?", a, b)
	}
}
