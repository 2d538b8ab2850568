package client

import (
	"context"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/term"
)

func newClient(t *testing.T) *Client {
	t.Helper()
	initial, err := parser.ObjectBase(`
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	repo, err := repository.Init(t.TempDir()+"/repo", initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	ts := httptest.NewServer(server.New(repo))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

const update = `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`

func TestClientEndToEnd(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	chk, err := c.Check(ctx, update)
	if err != nil {
		t.Fatalf("Check: %v", err)
	}
	if chk.Rules != 4 || len(chk.Strata) != 3 {
		t.Errorf("check = %+v", chk)
	}

	res, err := c.Apply(ctx, update)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if res.State != 1 || res.Fired != 6 || res.Strata != 3 {
		t.Errorf("apply = %+v", res)
	}
	if res.Timings == nil || len(res.Timings.StrataUS) != 3 || res.Timings.TotalUS <= 0 {
		t.Fatalf("apply timings = %+v", res.Timings)
	}
	// The stages and the rest add up to the total.
	if tm := res.Timings; tm.OtherUS < 0 || tm.ParseUS+tm.QueueUS+tm.SafetyUS+tm.EvalUS+tm.ConstraintsUS+tm.CommitUS+tm.OtherUS != tm.TotalUS {
		t.Errorf("apply timings do not add up to total_us: %+v", tm)
	}

	head, err := c.Head(ctx)
	if err != nil || !strings.Contains(head, "phil.sal -> 4600.") {
		t.Errorf("head = %q (%v)", head, err)
	}

	rows, err := c.Query(ctx, `E.isa -> hpe.`)
	if err != nil || len(rows) != 1 || rows[0]["E"] != "phil" {
		t.Errorf("query = %v (%v)", rows, err)
	}

	state0, err := c.State(ctx, 0)
	if err != nil || !strings.Contains(state0, "bob.sal -> 4200.") {
		t.Errorf("state 0 = %q (%v)", state0, err)
	}

	log, err := c.Log(ctx)
	if err != nil || len(log) != 1 || log[0].Seq != 1 || log[0].Fired != 6 {
		t.Errorf("log = %v (%v)", log, err)
	}

	hist, err := c.History(ctx, "bob")
	if err != nil || len(hist) != 3 || hist[2].Version != "del(mod(bob))" {
		t.Errorf("history = %v (%v)", hist, err)
	}
}

func TestClientConstraints(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	n, err := c.SetConstraints(ctx, `nonneg: E.isa -> empl, E.sal -> S, S < 0.`)
	if err != nil || n != 1 {
		t.Fatalf("SetConstraints = %d, %v", n, err)
	}
	text, err := c.Constraints(ctx)
	if err != nil || !strings.Contains(text, "nonneg") {
		t.Errorf("Constraints = %q (%v)", text, err)
	}
	_, err = c.Apply(ctx, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S - 99999.`)
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 409 {
		t.Errorf("violating apply err = %v, want 409 APIError", err)
	}
	if ae != nil && ae.Code != "constraint_violation" {
		t.Errorf("violating apply code = %q, want constraint_violation", ae.Code)
	}
}

func TestClientErrors(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	_, err := c.Apply(ctx, "broken -> ")
	var ae *APIError
	if !errors.As(err, &ae) || ae.StatusCode != 400 || ae.Message == "" {
		t.Errorf("err = %v", err)
	}
	if ae != nil {
		if ae.Code != "parse_error" {
			t.Errorf("parse err code = %q, want parse_error", ae.Code)
		}
		if ae.RequestID == "" {
			t.Errorf("APIError carries no request id: %+v", ae)
		}
	}
	if _, err := c.State(ctx, 99); !errors.As(err, &ae) || ae.StatusCode != 404 || ae.Code != "not_found" {
		t.Errorf("state err = %v", err)
	}
	// Unreachable server.
	dead := New("http://127.0.0.1:1")
	if _, err := dead.Head(ctx); err == nil {
		t.Errorf("dead server reachable")
	}
}

// TestClientPagination drives LogPage/HistoryPage directly and checks that
// the plain Log/History walk every page.
func TestClientPagination(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	raise := `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`
	for i := 0; i < 5; i++ {
		if _, err := c.Apply(ctx, raise); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}

	page, next, err := c.LogPage(ctx, 2, 0)
	if err != nil || len(page) != 2 || page[0].Seq != 1 || next != 2 {
		t.Fatalf("first page = %v next=%d (%v)", page, next, err)
	}
	page, next, err = c.LogPage(ctx, 2, next)
	if err != nil || len(page) != 2 || page[0].Seq != 3 || next != 4 {
		t.Fatalf("second page = %v next=%d (%v)", page, next, err)
	}
	page, next, err = c.LogPage(ctx, 2, next)
	if err != nil || len(page) != 1 || page[0].Seq != 5 || next != 0 {
		t.Fatalf("last page = %v next=%d (%v)", page, next, err)
	}

	all, err := c.Log(ctx)
	if err != nil || len(all) != 5 {
		t.Fatalf("Log = %d entries (%v), want 5", len(all), err)
	}

	// History of bob across the last apply has mod steps; page through at 1.
	full, err := c.History(ctx, "bob")
	if err != nil || len(full) < 2 {
		t.Fatalf("History = %v (%v)", full, err)
	}
	steps, next, err := c.HistoryPage(ctx, "bob", 1, 0)
	if err != nil || len(steps) != 1 || steps[0].Version != full[0].Version || next != 1 {
		t.Fatalf("history page = %v next=%d (%v)", steps, next, err)
	}
}

func TestClientStatsAndExplain(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	st, err := c.Stats(ctx)
	if err != nil || st.Objects != 2 || st.Facts == 0 {
		t.Fatalf("Stats = %+v (%v)", st, err)
	}
	if _, err := c.Apply(ctx, update); err != nil {
		t.Fatal(err)
	}
	entries, err := c.Explain(ctx, "ins(mod(phil)).isa -> hpe.")
	if err != nil || len(entries) != 1 || entries[0].Provenance != "update" {
		t.Fatalf("Explain = %+v (%v)", entries, err)
	}
}

// TestClientHistoryEscapesObject: an object name goes into the query string
// escaped, so one holding & + % or # asks for itself and not for whatever
// precedes its first delimiter.
func TestClientHistoryEscapesObject(t *testing.T) {
	const name = "r&d+50%#1"
	obj := term.GVID{Object: term.Sym(name)}
	initial := objectbase.New()
	initial.Insert(term.NewFact(obj, "isa", term.Sym("dept")))
	initial.Insert(term.NewFact(obj, "budget", term.Int(10)))
	initial.EnsureObject(obj.Object)
	// A decoy the unescaped request would have found: "r", cut at the &.
	initial.Insert(term.NewFact(term.GVID{Object: term.Sym("r")}, "isa", term.Sym("dept")))
	initial.EnsureObject(term.Sym("r"))
	repo, err := repository.Init(t.TempDir()+"/repo", initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	ts := httptest.NewServer(server.New(repo))
	t.Cleanup(ts.Close)
	c := New(ts.URL)
	ctx := context.Background()
	if _, err := c.Apply(ctx, `grow: mod[D].budget -> (B, B') <- D.isa -> dept, D.budget -> B, B' = B * 2.`); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	steps, err := c.History(ctx, name)
	if err != nil || len(steps) != 2 || steps[1].Version != "mod("+name+")" {
		t.Fatalf("History(%q) = %+v (%v)", name, steps, err)
	}
	page, next, err := c.AtState(1).HistoryPage(ctx, name, 1, 1)
	if err != nil || len(page) != 1 || page[0].Version != "mod("+name+")" || next != 0 {
		t.Fatalf("HistoryPage(%q) at state 1 = %+v next=%d (%v)", name, page, next, err)
	}
}

// TestClientAtState: AtState points History, Explain and ExplainVersion at
// an earlier apply and leaves everything else, and the parent handle, alone.
func TestClientAtState(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()
	if _, err := c.Apply(ctx, update); err != nil { // state 1: bob leaves, phil is an hpe
		t.Fatal(err)
	}
	res, err := c.Apply(ctx, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)
	if err != nil || res.State != 2 {
		t.Fatalf("second apply = %+v (%v)", res, err)
	}
	first, newest := c.AtState(1), c.AtState(res.State)

	hist, err := first.History(ctx, "bob")
	if err != nil || len(hist) != 3 || hist[2].Version != "del(mod(bob))" {
		t.Errorf("History of bob at state 1 = %+v (%v)", hist, err)
	}
	if hist, err := c.History(ctx, "bob"); err != nil || len(hist) != 0 {
		t.Errorf("History of bob, newest = %+v (%v), want none: bob left in state 1", hist, err)
	}
	entries, err := first.Explain(ctx, "ins(mod(phil)).isa -> hpe.")
	if err != nil || len(entries) != 1 || entries[0].Provenance != "update" {
		t.Errorf("Explain at state 1 = %+v (%v)", entries, err)
	}
	if entries, err := newest.Explain(ctx, "ins(mod(phil)).isa -> hpe."); err != nil || len(entries) != 1 || entries[0].Provenance != "unknown" {
		t.Errorf("Explain at state 2 = %+v (%v), want unknown: no such version there", entries, err)
	}
	for handle, want := range map[*Client]string{first: "mod[phil].sal -> (4000, 4600)", newest: "mod[phil].sal -> (4600, 4601)", c: "mod[phil].sal -> (4600, 4601)"} {
		facts, err := handle.ExplainVersion(ctx, "mod(phil)", "sal")
		if err != nil || len(facts) != 1 || facts[0].Chain[0].Update != want {
			t.Errorf("ExplainVersion at state %d = %+v (%v), want %s", handle.state, facts, err, want)
		}
	}
	var ae *APIError
	if _, err := c.AtState(3).History(ctx, "phil"); !errors.As(err, &ae) || ae.Code != "not_found" {
		t.Errorf("History at a state the journal does not reach = %v, want not_found", err)
	}
	// The selection is for provenance only: other reads take no notice.
	if head, err := first.Head(ctx); err != nil || !strings.Contains(head, "phil.sal -> 4601.") {
		t.Errorf("Head through an AtState handle = %q (%v)", head, err)
	}
}

// TestClientCheckDeep: CheckDeep returns the semantic tier's Facts on top
// of the plain Check shape, with estimates drawn from the head base.
func TestClientCheckDeep(t *testing.T) {
	c := newClient(t)
	ctx := context.Background()

	deep, err := c.CheckDeep(ctx, update)
	if err != nil {
		t.Fatalf("CheckDeep: %v", err)
	}
	if !deep.OK || deep.Rules != 4 {
		t.Fatalf("CheckDeep = %+v", deep.CheckResult)
	}
	if deep.Facts == nil || len(deep.Facts.Rules) != 4 {
		t.Fatalf("CheckDeep facts = %+v", deep.Facts)
	}
	if !deep.Facts.Base.Supplied {
		t.Errorf("facts should be drawn from the head base: %+v", deep.Facts.Base)
	}
	r1 := deep.Facts.Rules[0]
	if r1.Rule != "rule1" || r1.Stratum != 0 || r1.Cost <= 0 || len(r1.Literals) == 0 {
		t.Errorf("rule1 facts = %+v", r1)
	}
	sorts := map[string][]string{}
	for _, v := range r1.Vars {
		sorts[v.Var] = v.Sorts
	}
	if got := sorts["S"]; len(got) != 1 || got[0] != "num" {
		t.Errorf("inferred sorts for S = %v", got)
	}
	if len(deep.Facts.Strata) != 3 {
		t.Errorf("strata rollup = %+v", deep.Facts.Strata)
	}

	// Plain Check is unchanged by the deep surface existing.
	chk, err := c.Check(ctx, update)
	if err != nil || chk.Rules != 4 {
		t.Fatalf("Check after deep: %+v (%v)", chk, err)
	}
}
