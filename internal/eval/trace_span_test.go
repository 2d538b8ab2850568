package eval

import (
	"reflect"
	"strings"
	"testing"

	"verlog/internal/obs"
	"verlog/internal/term"
)

// TestRuleStatsSumToFired pins the attribution invariant the tracing
// surfaces rely on: every distinct fired update is attributed to exactly
// one rule, so the per-rule Fired counts sum to Result.Fired.
func TestRuleStatsSumToFired(t *testing.T) {
	ob, p := mustBase(t, enterpriseBase), mustProgram(t, enterpriseProgram)
	res := mustRun(t, ob, p, Options{})
	sum := 0
	for _, rs := range res.RuleStats {
		sum += rs.Fired
	}
	// The count is of distinct ground updates: as many as applying T_P
	// naively to a plain set of facts fires (no rule of this program fires
	// the same update in two strata).
	t.Run("naive", func(t *testing.T) {
		out, err := evaluators[0].run(ob, p)
		if err != nil {
			t.Fatal(err)
		}
		if sum != len(out.fired) {
			t.Errorf("sum of per-rule fired = %d, the spec fires %d distinct updates", sum, len(out.fired))
		}
	})
	t.Run("semi-naive", func(t *testing.T) {
		if len(res.RuleStats) != 4 {
			t.Fatalf("rule stats = %+v, want one per rule", res.RuleStats)
		}
		for _, rs := range res.RuleStats {
			if rs.Emitted < rs.Fired {
				t.Errorf("rule %s emitted %d < fired %d", rs.Rule, rs.Emitted, rs.Fired)
			}
			// No matched-vs-emitted invariant: a single del[v].* body
			// match expands into one delete per method application.
			if rs.Matched < 1 {
				t.Errorf("rule %s matched %d, want >= 1", rs.Rule, rs.Matched)
			}
			if rs.Stratum < 1 || rs.Iterations < 1 {
				t.Errorf("rule %s stratum %d iterations %d, want >= 1", rs.Rule, rs.Stratum, rs.Iterations)
			}
		}
		if sum != res.Fired {
			t.Errorf("sum of per-rule fired = %d, want Result.Fired = %d", sum, res.Fired)
		}
		// Hottest-first: times never increase.
		for i := 1; i < len(res.RuleStats); i++ {
			if res.RuleStats[i].TimeUS > res.RuleStats[i-1].TimeUS {
				t.Errorf("rule stats not sorted by time: %+v", res.RuleStats)
			}
		}
	})
}

// TestRuleStatsMatchParallel verifies the deterministic counts are
// identical whether a run has the head to itself or shares it with others.
func TestRuleStatsMatchParallel(t *testing.T) {
	head, p := mustBase(t, enterpriseBase).Freeze(), mustProgram(t, enterpriseProgram)
	counts := func(res *Result) map[string][3]int {
		m := make(map[string][3]int)
		for _, rs := range res.RuleStats {
			m[rs.Rule] = [3]int{rs.Fired, rs.Emitted, rs.Matched}
		}
		return m
	}
	want := counts(mustRun(t, head, p, Options{}))
	for _, par := range runParallel(t, head, p, Options{}, 4) {
		if got := counts(par); !reflect.DeepEqual(got, want) {
			t.Errorf("parallel counts %v, sequential %v", got, want)
		}
	}
}

// TestSpanTreeShape runs with a Span and checks the advertised node
// hierarchy: stratify and copy under the root, stratum → iteration →
// rule, and per-rule fired attrs that agree with RuleStats.
func TestSpanTreeShape(t *testing.T) {
	tr := obs.NewTrace("apply")
	ob := mustBase(t, enterpriseBase)
	res := mustRun(t, ob, mustProgram(t, enterpriseProgram), Options{Span: tr.Root})
	tr.Finish()

	names := make(map[string]int)
	var walk func(s *obs.Span)
	walk = func(s *obs.Span) {
		names[strings.SplitN(s.Name, " ", 2)[0]]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(tr.Root)
	if names["stratify"] != 1 || names["copy"] != 1 {
		t.Errorf("span kinds = %v, want one stratify and one copy", names)
	}
	if names["stratum"] != len(res.Iterations) {
		t.Errorf("stratum spans = %d, want %d", names["stratum"], len(res.Iterations))
	}
	wantIters := 0
	for _, n := range res.Iterations {
		wantIters += n
	}
	if names["iteration"] != wantIters {
		t.Errorf("iteration spans = %d, want %d", names["iteration"], wantIters)
	}
	if names["rule"] == 0 {
		t.Error("no rule spans recorded")
	}

	// Sum the fired attr across rule spans: must equal Result.Fired.
	firedSum := int64(0)
	var sumFired func(s *obs.Span)
	sumFired = func(s *obs.Span) {
		if strings.HasPrefix(s.Name, "rule ") {
			for _, a := range s.Attrs {
				if a.Key == "fired" {
					firedSum += a.Value.(int64)
				}
			}
		}
		for _, c := range s.Children {
			sumFired(c)
		}
	}
	sumFired(tr.Root)
	if firedSum != int64(res.Fired) {
		t.Errorf("fired attrs sum to %d, want %d", firedSum, res.Fired)
	}

	// The span path reaches rule level: stratum → iteration → rule.
	found := false
	for _, st := range tr.Root.Children {
		if !strings.HasPrefix(st.Name, "stratum") {
			continue
		}
		for _, it := range st.Children {
			if !strings.HasPrefix(it.Name, "iteration") {
				t.Errorf("stratum child %q, want iteration", it.Name)
			}
			for _, r := range it.Children {
				if strings.HasPrefix(r.Name, "rule ") {
					found = true
				}
			}
		}
	}
	if !found {
		t.Error("no stratum → iteration → rule path in span tree")
	}
}

// TestSpanNilIsUnchanged checks a traced and an untraced run compute the
// same fixpoint and the same rule stats.
func TestSpanNilIsUnchanged(t *testing.T) {
	tr := obs.NewTrace("apply")
	plain := mustRun(t, mustBase(t, enterpriseBase), mustProgram(t, enterpriseProgram), Options{})
	traced := mustRun(t, mustBase(t, enterpriseBase), mustProgram(t, enterpriseProgram), Options{Span: tr.Root})
	if plain.Fired != traced.Fired || len(plain.RuleStats) != len(traced.RuleStats) {
		t.Errorf("traced run diverged: fired %d vs %d", plain.Fired, traced.Fired)
	}
	byRule := make(map[string]RuleStat)
	for _, rs := range plain.RuleStats {
		byRule[rs.Rule] = rs
	}
	for _, b := range traced.RuleStats {
		a := byRule[b.Rule]
		if a.Fired != b.Fired || a.Emitted != b.Emitted || a.Matched != b.Matched {
			t.Errorf("rule %s stats diverged: %+v vs %+v", b.Rule, a, b)
		}
	}
}

// TestCopySpanCountsTouchedObjects: the copy span reports how many objects
// the copy phase visited and how many it changed — numbers the run has at
// hand — instead of grouping and sorting the whole updated base, so a
// traced apply does the same work as an untraced one.
func TestCopySpanCountsTouchedObjects(t *testing.T) {
	tr := obs.NewTrace("apply")
	ob := mustBase(t, enterpriseBase).Freeze()
	p := mustProgram(t, `r: mod[bob].sal -> (S, S') <- bob.sal -> S, S' = S + 1.`)
	res := mustRun(t, ob, p, Options{Span: tr.Root})
	tr.Finish()
	attrs := map[string]int64{}
	for _, c := range tr.Root.Children {
		if c.Name == "copy" {
			for _, a := range c.Attrs {
				attrs[a.Key] = a.Value.(int64)
			}
		}
	}
	if attrs["objects"] != 1 || attrs["changed"] != 1 || len(res.Changes) != 1 {
		t.Errorf("copy span attrs = %v with %d changes, want one object visited and changed", attrs, len(res.Changes))
	}
	if res.Final.StateOf(term.GVID{Object: term.Sym("phil")}) != ob.StateOf(term.GVID{Object: term.Sym("phil")}) {
		t.Errorf("the untouched object's state was copied, not shared with the input")
	}
}
