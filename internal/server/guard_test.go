package server

import (
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/repository"
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
	// indexes. Every counted call reuses the evaluation's working memory the
	// one before it left (eval.Run): the collection before the count finds it
	// used and leaves it, and the collector is off from the first call on, so
	// that no collection of its own comes between.
	measure := func(apply func()) float64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		apply()
		apply()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < applies; i++ {
			apply()
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.TotalAlloc-m0.TotalAlloc) / applies
	}
	newRepo := func() *repository.Repository {
		repo, err := repository.Init(t.TempDir()+"/repo", workload.GenealogySpec{Generations: 8, Branching: 2, Roots: 3}.ObjectBase())
		if err != nil {
			t.Fatal(err)
		}
		return repo
	}
	direct := newRepo()
	repoBytes := measure(func() {
		if _, _, _, err := direct.ApplyKey(p, ""); err != nil {
			t.Fatal(err)
		}
	})
	ts := httptest.NewServer(New(newRepo()))
	defer ts.Close()
	httpBytes := measure(func() {
		if code, body := post(t, ts.URL+"/v1/t/default/apply", workload.AncestorsProgram); code != 200 {
			t.Fatalf("apply: %d %s", code, body)
		}
	})
	t.Logf("per apply: %.0f B over HTTP, %.0f B on the repository (%+.0f B)", httpBytes, repoBytes, httpBytes-repoBytes)
	const bound = 96 << 10
	if httpBytes-repoBytes > bound {
		t.Errorf("an HTTP apply allocates %.0f B more than Repository.ApplyKey, want ≤ %d: is the request path building a trace?", httpBytes-repoBytes, bound)
	}
}
