package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"testing"

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

// TestProvedApplyTimings: an apply the repository proves a no-op answers
// like an evaluated one — its state, fired count, strata and iterations —
// and its timings have no evaluation stage: parse, queue, constraints and
// commit are all it spent, and they fit in its total. /metrics counts it.
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
	var evaluated, proved struct {
		State, Fired, Strata int
		Iterations           []int
		T                    struct {
			ParseUS       int64   `json:"parse_us"`
			QueueUS       int64   `json:"queue_us"`
			SafetyUS      int64   `json:"safety_us"`
			StratifyUS    int64   `json:"stratify_us"`
			StrataUS      []int64 `json:"strata_us"`
			CopyUS        int64   `json:"copy_us"`
			EvalUS        int64   `json:"eval_us"`
			ConstraintsUS int64   `json:"constraints_us"`
			CommitUS      int64   `json:"commit_us"`
			TotalUS       int64   `json:"total_us"`
		} `json:"timings"`
	}
	if err := errors.Join(json.Unmarshal([]byte(bodies[1]), &evaluated), json.Unmarshal([]byte(bodies[2]), &proved)); err != nil {
		t.Fatal(err)
	}
	if proved.State != 3 || proved.Fired != evaluated.Fired || proved.Strata != evaluated.Strata || !slices.Equal(proved.Iterations, evaluated.Iterations) {
		t.Errorf("the proved apply answers %s, the evaluated one before it %s", bodies[2], bodies[1])
	}
	pt := proved.T
	if pt.SafetyUS != 0 || pt.StratifyUS != 0 || pt.CopyUS != 0 || pt.EvalUS != 0 || pt.StrataUS != nil || evaluated.T.StrataUS == nil {
		t.Errorf("the proved apply's timings have an evaluation stage: %s", bodies[2])
	}
	if sum := pt.ParseUS + pt.QueueUS + pt.ConstraintsUS + pt.CommitUS; sum > pt.TotalUS {
		t.Errorf("the proved apply's stages sum to %d µs, past its total %d µs", sum, pt.TotalUS)
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
}
