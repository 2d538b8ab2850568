package repository

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func mustQuery(t *testing.T, src string) []term.Literal {
	t.Helper()
	body, err := parser.Query(src, "query")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// stratifies reports whether an apply traced under root stratified.
func stratifies(root *obs.Span) bool {
	for _, c := range root.Children {
		if c.Name == "stratify" {
			return true
		}
	}
	return false
}

// TestPlanCacheByShape: 200 point updates and 200 point queries, each
// naming another employee of a 3 000-employee repository, plan once per
// shape and seq class: the applies of one shape, and the queries of each
// of two, miss once per class of 64 commits. An apply the cache serves
// does not stratify, and every answer is the uncached one. A program whose
// lift is not one stratum is planned by its text: a repeat of the text is
// served, another text of the shape is not.
func TestPlanCacheByShape(t *testing.T) {
	const n, steps = 3000, 200
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 3}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.Instrument(obs.NewRegistry())
	m := r.met()
	for i := 0; i < steps; i++ {
		k := (i * 7919) % n
		p, err := parser.Program(fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", k, k), "point.vlg")
		if err != nil {
			t.Fatal(err)
		}
		salary := func() term.OID {
			head, _ := r.Head()
			_, rows, err := eval.QueryRows(head, mustQuery(t, fmt.Sprintf("e%d.sal -> S.", k)))
			if err != nil || len(rows) != 1 {
				t.Fatalf("e%d.sal: %v %v", k, rows, err)
			}
			return rows[0][0]
		}
		before := salary()
		hits := m.PlanCacheHits.Value()
		root := obs.NewTrace("apply").Root
		if _, _, _, err := r.ApplyKey(p, "", core.WithSpan(root)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if after := salary(); after != term.FromRat(before.Rat().Add(term.Int(1).Rat())) {
			t.Fatalf("apply %d raised e%d from %v to %v, want one more", i, k, before, after)
		}
		if hit := m.PlanCacheHits.Value() > hits; hit == stratifies(root) {
			t.Errorf("apply %d: a cache hit %v, stratified %v", i, hit, stratifies(root))
		}
		for _, q := range []string{fmt.Sprintf("e%d.sal -> S.", k), fmt.Sprintf("E.boss -> e%d, E.sal -> S.", (k*31)%300)} {
			body := mustQuery(t, q)
			head, _ := r.Head()
			wantVars, wantRows, err := eval.QueryRows(head, body)
			if err != nil {
				t.Fatal(err)
			}
			vars, rows, err := r.QueryRows(body)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if !slices.Equal(vars, wantVars) || !slices.EqualFunc(rows, wantRows, slices.Equal) {
				t.Errorf("%s: %v %v, uncached %v %v", q, vars, rows, wantVars, wantRows)
			}
		}
	}
	classes := int64((steps-1)>>planSeqClassBits + 1)
	if got := m.PlanCacheMisses.Value(); got > classes {
		t.Errorf("%d applies of one shape planned %d times, want ≤ %d (once per seq class)", steps, got, classes)
	}
	if got := m.QueryPlanCacheMisses.Value(); got > 2*classes {
		t.Errorf("%d queries of two shapes planned %d times, want ≤ %d", 2*steps, got, 2*classes)
	}
	if got := m.PlanCacheHits.Value() + m.PlanCacheMisses.Value(); got != steps {
		t.Errorf("the apply counters sum to %d, want one per apply (%d)", got, steps)
	}

	// The enterprise program's lift is not one stratum.
	p, err := parser.Program(workload.EnterpriseProgram, "enterprise.vlg")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{false, true} {
		hits := m.PlanCacheHits.Value()
		root := obs.NewTrace("apply").Root
		if _, _, _, err := r.ApplyKey(p, "", core.WithSpan(root)); err != nil {
			t.Fatal(err)
		}
		if hit := m.PlanCacheHits.Value() > hits; hit != want || hit == stratifies(root) {
			t.Errorf("enterprise apply %d: hit %v, stratified %v; want hit %v", i, hit, stratifies(root), want)
		}
	}
	other, err := parser.Program(strings.ReplaceAll(workload.EnterpriseProgram, "mgr", "chief"), "enterprise.vlg")
	if err != nil {
		t.Fatal(err)
	}
	hits := m.PlanCacheHits.Value()
	if _, err := r.Apply(other); err != nil {
		t.Fatal(err)
	}
	if m.PlanCacheHits.Value() != hits {
		t.Error("another text of the enterprise program's shape was served")
	}
}

// TestPlanCacheKeyCollision: an entry found under a program's key serves
// it only when it is the program's shape, so two programs given the same
// key are a miss for the second, never its run on the first one's plans.
func TestPlanCacheKeyCollision(t *testing.T) {
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: 20, Seed: 1}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	mustProgram := func(src string) *term.Program {
		p, err := parser.Program(src, "p.vlg")
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := mustProgram(`mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.`)
	b := mustProgram(`mod[e1].sal -> (S, S') <- e2.sal -> S, S' = S + 1.`)
	head, _ := r.Head()
	cp, _, err := eval.PlanProgram(head, a, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := eval.ProgramShape(a, nil)
	r.storePlans(&planEntry{key: key, prog: cp})
	_, params := eval.ProgramShape(a, nil)
	if e := r.programPlansAt(key, a, params, 0); e == nil || e.prog != cp {
		t.Fatal("the program's own plans are not found under its key")
	}
	_, params = eval.ProgramShape(b, nil)
	if r.programPlansAt(key, b, params, 0) != nil {
		t.Error("plans of another shape served a program found under their key")
	}
	if e := r.findPlans(key); e.query.Serves(mustQuery(t, "e1.sal -> S."), nil) {
		t.Error("a program's entry served a query")
	}
}

// TestPlanCacheConcurrentReads: queries read and fill the plan cache under
// no lock but its own while applies fill it under applyMu. Eight readers
// query while applies commit; run under -race.
func TestPlanCacheConcurrentReads(t *testing.T) {
	const n, applies, readers = 300, 60, 8
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 9}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				q := fmt.Sprintf("e%d.sal -> S.", (g*37+i)%n)
				if i%2 == 1 {
					q = fmt.Sprintf("E.boss -> e%d, E.sal -> S.", (g+i)%30)
				}
				body, err := parser.Query(q, "query")
				if err != nil {
					errs <- err
					return
				}
				if _, rows, err := r.QueryRows(body); err != nil || i%2 == 0 && len(rows) != 1 {
					errs <- fmt.Errorf("%s: %d rows, %v", q, len(rows), err)
					return
				}
			}
		}(g)
	}
	for i := 0; i < applies; i++ {
		p, err := parser.Program(fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", i, i), "p.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestReplayDiverged: an entry whose digest or counts its program does not
// derive is ErrDiverged, naming its seq, and explains nothing; the entries
// around it still replay. At past it refuses the same way.
func TestReplayDiverged(t *testing.T) {
	for _, c := range []struct {
		name   string
		tamper func(e *Entry)
	}{
		// The resident journal as a corrupted record or memory gone wrong
		// would leave it: entry 2 leads to another state, or claims to have
		// added one fact more than its program adds.
		{"digest", func(e *Entry) {
			forged := *e.Digest
			forged[0]++
			e.Digest = &forged
		}},
		{"count", func(e *Entry) { e.NumAdded++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: 20, Seed: 1}.ObjectBase())
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for k := 1; k <= 4; k++ {
				p, err := parser.Program(fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", k, k), "p.vlg")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := r.Apply(p); err != nil {
					t.Fatal(err)
				}
			}
			for n := 1; n <= 4; n++ {
				if _, err := r.Replay(n); err != nil {
					t.Fatalf("Replay(%d) before tampering: %v", n, err)
				}
			}
			hs := r.published.Load()
			c.tamper(&hs.entries[1])
			_, err = r.Replay(2)
			if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "entry 2") {
				t.Errorf("Replay(2) of a tampered entry = %v, want ErrDiverged naming entry 2", err)
			}
			if _, err := r.Replay(1); err != nil {
				t.Errorf("Replay(1): %v", err)
			}
			// State 2 and the one after it are derived again, past the
			// tampered entry; state 3 is resident, the one before the head.
			for n := 2; n <= 3; n++ {
				if n == 3 {
					hs.prev = nil // as after a reopen
				}
				if _, err := r.At(n); !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "entry 2") {
					t.Errorf("At(%d) past a tampered entry = %v, want ErrDiverged naming entry 2", n, err)
				}
			}
			if _, err := r.At(1); err != nil {
				t.Errorf("At(1): %v", err)
			}
		})
	}
}
