package core

import (
	"strings"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/parser"
)

const (
	obSrc = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`
	progSrc = `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`
)

func TestApplySource(t *testing.T) {
	res, err := New().ApplySource(obSrc, "ob.vlg", progSrc, "prog.vlg")
	if err != nil {
		t.Fatalf("ApplySource: %v", err)
	}
	out := parser.FormatFacts(res.Final, false)
	if !strings.Contains(out, "phil.sal -> 4600.") {
		t.Errorf("output:\n%s", out)
	}
}

func TestApplySourceParseErrors(t *testing.T) {
	if _, err := New().ApplySource("x.m -> .", "bad-ob.vlg", progSrc, "p"); err == nil ||
		!strings.Contains(err.Error(), "bad-ob.vlg") {
		t.Errorf("bad base: %v", err)
	}
	if _, err := New().ApplySource(obSrc, "ob", "ins[X].m -> ", "bad-prog.vlg"); err == nil ||
		!strings.Contains(err.Error(), "bad-prog.vlg") {
		t.Errorf("bad program: %v", err)
	}
}

func TestCheckRejectsUnsafe(t *testing.T) {
	p, err := parser.Program(`r: ins[X].m -> Y <- X.t -> 1.`, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Check(p); err == nil {
		t.Errorf("unsafe program passed Check")
	}
}

func TestCheckRejectsUnstratifiable(t *testing.T) {
	p, err := parser.Program(`r: ins[X].m -> a <- X.t -> 1, !ins(X).m -> a.`, "p")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New().Check(p); err == nil {
		t.Errorf("unstratifiable program passed Check")
	}
}

func TestOptionsArePlumbed(t *testing.T) {
	p, err := parser.Program(progSrc, "p")
	if err != nil {
		t.Fatal(err)
	}
	ob, err := parser.ObjectBase(obSrc, "ob")
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(WithTrace(), WithMaxIterations(50)).Apply(ob, p)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if len(res.Trace) == 0 {
		t.Errorf("WithTrace not plumbed")
	}
	// WithPlans: plans compiled for the program are used, whichever planner
	// ordered them; plans of another program are a cache miss.
	static, err := eval.Compile(ob, p, true)
	if err != nil {
		t.Fatal(err)
	}
	if again, err := New(WithPlans(static)).Apply(ob, p); err != nil || again.Plan != "cached" || !again.Final.Equal(res.Final) {
		t.Errorf("WithPlans not plumbed: plan %q, err %v", again.Plan, err)
	}
	// ForbidNewObjects: an insert on a fresh OID errors.
	p2, _ := parser.Program(`r: ins[brandnew].m -> X <- X.isa -> empl.`, "p2")
	if res, err := New(WithPlans(static)).Apply(ob, p2); err != nil || res.Plan != "compiled" {
		t.Errorf("plans of another program: plan %q, err %v", res.Plan, err)
	}
	if _, err := New(WithForbidNewObjects()).Apply(ob, p2); err == nil {
		t.Errorf("WithForbidNewObjects not plumbed")
	}
	if _, err := New().Apply(ob, p2); err != nil {
		t.Errorf("default should allow new objects: %v", err)
	}
}

func TestQueryHelper(t *testing.T) {
	ob, err := parser.ObjectBase(obSrc, "ob")
	if err != nil {
		t.Fatal(err)
	}
	bs, err := Query(ob, `E.sal -> S, S > 4000.`)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if len(bs) != 1 || bs[0].String() != "E=bob, S=4200" {
		t.Errorf("bindings = %v", bs)
	}
	if _, err := Query(ob, `E.sal -> `); err == nil {
		t.Errorf("bad query accepted")
	}
}
