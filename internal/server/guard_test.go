package server

import (
	"net/http/httptest"
	"runtime"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/workload"
)

// TestApplyBuildsNoTraceGuard holds the request path to what the repository
// pays for an untraced apply: N HTTP applies of the ancestors program on a
// closed genealogy (the recursive_closure workload) may allocate at most
// 1.15x the bytes of N direct Repository.ApplyKey calls, request and response
// included. A fired-update trace on the request path reads 1.49x (152 B for
// each of the 4 614 updates of a 1.5 MB apply), so one creeping back fails
// here on a count, in one run, whatever the host is doing.
func TestApplyBuildsNoTraceGuard(t *testing.T) {
	const applies = 8
	p, err := parser.Program(workload.AncestorsProgram, "ancestors")
	if err != nil {
		t.Fatal(err)
	}
	// measure returns the bytes allocated by applies calls of apply, after
	// two that close the genealogy and fill the plan cache and the indexes.
	measure := func(apply func()) uint64 {
		apply()
		apply()
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for i := 0; i < applies; i++ {
			apply()
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
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
	ratio := float64(httpBytes) / float64(repoBytes)
	t.Logf("%d applies: %d B over HTTP, %d B on the repository (%.3fx)", applies, httpBytes, repoBytes, ratio)
	if ratio > 1.15 {
		t.Errorf("an HTTP apply allocates %.3fx what Repository.ApplyKey does, want ≤ 1.15x: is the request path building a trace?", ratio)
	}
}
