package server

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/storage"
	"verlog/internal/workload"
)

// TestApplyBuildsNoTraceGuard holds the request path to what the repository
// pays for an untraced apply: an HTTP apply of the ancestors program on a
// closed genealogy (the recursive_closure workload) may allocate at most 96 kB
// more than a direct Repository.ApplyKey call, request and response included
// (measured: 15 to 19 kB, 39 kB under the race detector). A fired-update trace on the request path is 152 B for
// each of the 4 614 updates, 700 kB and seven times the bound, so one creeping back fails here on a
// count, in one run, whatever the host is doing. A difference and not a
// ratio: the bound is on what the request path adds to an apply, a trace's
// worth of bytes, whatever the evaluation under it costs.
func TestApplyBuildsNoTraceGuard(t *testing.T) {
	const applies = 8
	p, err := parser.Program(workload.AncestorsProgram, "ancestors")
	if err != nil {
		t.Fatal(err)
	}
	// measure returns the bytes allocated per call by applies calls of apply,
	// after two that close the genealogy and fill the plan cache and the
	// indexes. The collection before the count finds the evaluation's working
	// memory used and leaves it, and the collector is off from the first call
	// on, so that no collection of its own comes between. Before every call,
	// outside the count, edit toggles the isa of the genealogy's root, which
	// the program reads and which changes none of its pairs: every counted
	// apply is evaluated, none is proved a no-op by the repository. The edit
	// is evaluated too, as a follower evaluates its primary's records, and
	// leaves the counted apply a working memory trimmed to its own small
	// run (measured: ~665 kB per apply on either path), so both paths buy
	// it alike and the difference is still the request path's.
	measure := func(edit, apply func()) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		apply()
		apply()
		runtime.GC()
		var total uint64
		for i := 0; i < applies; i++ {
			edit()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			apply()
			runtime.ReadMemStats(&m1)
			total += m1.TotalAlloc - m0.TotalAlloc
		}
		return float64(total) / applies
	}
	newRepo := func() *repository.Repository {
		repo, err := repository.Init(t.TempDir()+"/repo", workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}.ObjectBase())
		if err != nil {
			t.Fatal(err)
		}
		return repo
	}
	direct := newRepo()
	repoBytes := measure(toggleRootIsa(t, direct), func() {
		res, _, _, err := direct.ApplyKey(p, "")
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan == "proved" {
			t.Fatal("a counted apply was proved a no-op")
		}
	})
	served := newRepo()
	ts := httptest.NewServer(New(served))
	defer ts.Close()
	httpBytes := measure(toggleRootIsa(t, served), func() {
		code, body := post(t, ts.URL+"/v1/t/default/apply", workload.AncestorsProgram)
		if code != 200 {
			t.Fatalf("apply: %d %s", code, body)
		}
		if !strings.Contains(body, `"strata_us"`) {
			t.Fatalf("a counted apply was proved a no-op: %s", body)
		}
	})
	t.Logf("per apply: %.0f B over HTTP, %.0f B on the repository (%+.0f B)", httpBytes, repoBytes, httpBytes-repoBytes)
	const bound = 96 << 10
	if httpBytes-repoBytes > bound {
		t.Errorf("an HTTP apply allocates %.0f B more than Repository.ApplyKey, want ≤ %d: is the request path building a trace?", httpBytes-repoBytes, bound)
	}
}

// toggleRootIsa returns an edit of r, a repository of a genealogy, that
// toggles the isa of its root p0_0_0 between person and human: the base
// changes, so the next apply of the ancestors program is not proved a no-op
// and is evaluated, and no pair of its closure changes (the root has no
// parents). r takes the edit's journal entry as a follower takes its
// primary's (ApplyReplicaBatch): the entry carries the digest of the state
// it leads to, the head's digest with the old isa fact hashed out and the
// new one in.
func toggleRootIsa(t testing.TB, r *repository.Repository) func() {
	isa := [2]string{"person", "human"}
	edits := 0
	return func() {
		from, to := isa[edits%2], isa[(edits+1)%2]
		edits++
		_, seq := r.Snapshot()
		digest := r.Digest().Add(storage.FactsDigest([]byte("p0_0_0.isa=" + to))).Sub(storage.FactsDigest([]byte("p0_0_0.isa=" + from)))
		e := repository.Entry{Seq: seq + 1, Program: fmt.Sprintf("mod[p0_0_0].isa -> (%s, %s).", from, to),
			Fired: 1, Strata: 1, Digest: &digest}
		if err := r.ApplyReplicaBatch([]repository.Entry{e}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProvedApplyTimings: an apply's timings add up — parse + queue +
// safety + eval + constraints + commit + other = total, other ≥ 0 — whether
// the apply is evaluated, proved a no-op or checked against a constraint, on
// the workload programs and the golden ones. An apply the repository proves
// a no-op answers like an evaluated one — its state, fired count, strata and
// iterations — and its timings have no evaluation stage. /metrics counts it.
// An apply with ?trace=1 is evaluated, so its rules' fired values sum to its
// fired.
func TestProvedApplyTimings(t *testing.T) {
	ts, _ := newTestServer(t)
	defer ts.Close()
	const raise = `r: ins[X].senior -> yes <- X.isa -> empl, X.sal -> S, S > 4100.`
	var bodies [3]string
	for i := range bodies {
		code, body := post(t, ts.URL+"/v1/t/default/apply", raise)
		if code != 200 {
			t.Fatalf("apply %d: %d %s", i+1, code, body)
		}
		bodies[i] = body
	}
	evaluated, proved := addsUp(t, "evaluated", bodies[1]), addsUp(t, "proved", bodies[2])
	if proved.State != 3 || proved.Fired != evaluated.Fired || proved.Strata != evaluated.Strata || !slices.Equal(proved.Iters, evaluated.Iters) {
		t.Errorf("the proved apply answers %s, the evaluated one before it %s", bodies[2], bodies[1])
	}
	if pt := proved.Timings; pt.SafetyUS != 0 || pt.StratifyUS != 0 || pt.CopyUS != 0 || pt.EvalUS != 0 || pt.StrataUS != nil || evaluated.Timings.StrataUS == nil {
		t.Errorf("the proved apply's timings have an evaluation stage: %s", bodies[2])
	}
	code, body := post(t, ts.URL+"/v1/t/default/apply?trace=1", raise)
	var traced struct {
		Fired int
		Rules []struct{ Fired int }
	}
	if code != 200 {
		t.Fatalf("traced apply: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &traced); err != nil {
		t.Fatal(err)
	}
	sum := 0
	for _, r := range traced.Rules {
		sum += r.Fired
	}
	if traced.Fired != evaluated.Fired || len(traced.Rules) == 0 || sum != traced.Fired {
		t.Errorf("the traced apply after a proved one fired %d, its rules %d: %s", traced.Fired, sum, body)
	}
	if _, body := get(t, ts.URL+"/metrics"); !strings.Contains(body, "\nverlog_applies_proved_noop_total 1\n") {
		t.Errorf("/metrics does not count one proved apply")
	}
	timingsAddUp(t)
}

// timingsAddUp applies each workload program on its base and each golden
// program on its own, three times, then once more under a constraint that
// nothing violates, and holds every apply's timings to their identity
// (addsUp). The closure's third apply is proved a no-op; every apply after
// the constraint that changes something checks it.
func timingsAddUp(t *testing.T) {
	type run struct {
		name, program string
		base          *objectbase.Base
	}
	staff := workload.EnterpriseSpec{Employees: 200, Seed: 1}
	runs := []run{
		{"point_update", "mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.", staff.ObjectBase()},
		{"bulk_raise", workload.BulkRaiseProgram, staff.ObjectBase()},
		{"recursive_closure", workload.AncestorsProgram, workload.GenealogySpec{Generations: 5, Branching: 2, Roots: 2}.ObjectBase()},
		{"enterprise", workload.EnterpriseProgram, staff.ObjectBase()},
	}
	files, err := filepath.Glob("../../testdata/golden/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden cases found (%v)", err)
	}
	for _, file := range files {
		raw, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		src := string(raw)
		if strings.Contains(src, "\n-- error --") {
			continue // refused: no timings
		}
		base, err := parser.ObjectBase(goldenSection(src, "base"), file)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{filepath.Base(file), goldenSection(src, "program"), base})
	}
	proved := 0
	for _, rn := range runs {
		repo, err := repository.Init(t.TempDir()+"/repo", rn.base)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(New(repo))
		for i := 1; i <= 4; i++ {
			if i == 4 {
				if code, body := post(t, ts.URL+"/v1/t/default/constraints", `never: X.timings_never -> Y.`); code != 200 {
					t.Fatalf("%s: constraints: %d %s", rn.name, code, body)
				}
			}
			code, body := post(t, ts.URL+"/v1/t/default/apply", rn.program)
			if code != 200 {
				t.Fatalf("%s: apply %d: %d %s", rn.name, i, code, body)
			}
			if res := addsUp(t, fmt.Sprintf("%s apply %d", rn.name, i), body); res.Timings.StrataUS == nil {
				proved++
			}
		}
		ts.Close()
	}
	if proved == 0 {
		t.Error("no apply was proved a no-op")
	}
}

// addsUp decodes an apply response and holds its timings to their identity:
// the stages that do not overlap and the rest sum to the total.
func addsUp(t *testing.T, what, body string) applyResponse {
	t.Helper()
	var res applyResponse
	if err := json.Unmarshal([]byte(body), &res); err != nil || res.Timings == nil {
		t.Fatalf("%s: no timings (%v): %s", what, err, body)
	}
	tm := res.Timings
	if sum := tm.ParseUS + tm.QueueUS + tm.SafetyUS + tm.EvalUS + tm.ConstraintsUS + tm.CommitUS + tm.OtherUS; sum != tm.TotalUS || tm.OtherUS < 0 {
		t.Errorf("%s: the timings sum to %d µs, other %d µs, total %d µs: %s", what, sum, tm.OtherUS, tm.TotalUS, body)
	}
	return res
}

// goldenSection returns the named section of a golden case.
func goldenSection(src, name string) string {
	_, rest, _ := strings.Cut(src, "-- "+name+" --\n")
	body, _, _ := strings.Cut(rest, "\n-- ")
	return body
}
