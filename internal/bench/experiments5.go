package bench

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"verlog/internal/core"
	"verlog/internal/tenant"
	"verlog/internal/workload"
)

// --- E19: multi-tenant residency under a fleet of small tenants ----------------

func init() {
	register(Experiment{
		ID:    "E19",
		Title: "1000 tenants of mixed enterprise traffic under a 64-tenant residency cap",
		Run:   runE19,
	})
}

// e19SeedProgram is a ground insert program materializing a small
// enterprise base (the E2 vocabulary) inside an empty tenant.
func e19SeedProgram(employees int, seed int64) string {
	emps := workload.EnterpriseSpec{Employees: employees, ManagerFraction: 0.25, Seed: seed}.Generate()
	var b strings.Builder
	for _, e := range emps {
		fmt.Fprintf(&b, "ins[%s].isa -> empl.\n", e.Name)
		fmt.Fprintf(&b, "ins[%s].sal -> %d.\n", e.Name, e.Salary)
		if e.Manager {
			fmt.Fprintf(&b, "ins[%s].pos -> mgr.\n", e.Name)
		}
		if e.Boss != "" {
			fmt.Fprintf(&b, "ins[%s].boss -> %s.\n", e.Name, e.Boss)
		}
	}
	return b.String()
}

// runE19 drives the tenant manager the way cmd/verlog-server does: a
// worker pool sends each of 1000 tenants two rounds of the mixed E2
// workload (one apply + two reads per round) while only 64 repositories
// may be resident. Round 2 revisits every tenant in the same order, so
// all but the most recent 64 have been evicted and must transparently
// reopen from disk with their round-1 state intact.
func runE19() (*Table, error) {
	const (
		tenants   = 1000
		maxOpen   = 64
		workers   = 16
		employees = 4
	)
	t := &Table{
		ID:    "E19",
		Title: "multi-tenant residency (LRU eviction + reopen)",
		Note:  fmt.Sprintf("%d tenants, %d resident cap: residency must never exceed the cap, evictions must occur, and every revisited tenant must still hold its round-1 state after its repository was closed and reopened", tenants, maxOpen),
		Header: []string{
			"tenants", "max_open", "applies", "queries", "time_ms", "evictions", "max_resident", "check",
		},
	}
	root, err := os.MkdirTemp("", "verlog-bench-tenants")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	mgr := tenant.NewManager(root, tenant.WithMaxOpen(maxOpen))
	defer mgr.Close()

	var applies, queries atomic.Int64
	var firstErr atomic.Pointer[error]
	fail := func(err error) {
		if err != nil {
			firstErr.CompareAndSwap(nil, &err)
		}
	}
	// visit runs one round of the mixed workload against one tenant.
	visit := func(i, round int) {
		name := fmt.Sprintf("tenant-%04d", i)
		tn, err := mgr.Acquire(name, round == 0)
		if err != nil {
			fail(fmt.Errorf("%s round %d: %w", name, round, err))
			return
		}
		defer mgr.Release(tn)
		if round == 0 {
			_, err = tn.Repo().Apply(mustProgram(e19SeedProgram(employees, int64(i))))
		} else {
			// The revisit must see the seeded base (eviction kept the data).
			head, herr := tn.Repo().Head()
			if herr != nil {
				fail(fmt.Errorf("%s head: %w", name, herr))
				return
			}
			if head.Size() == 0 {
				fail(fmt.Errorf("%s lost its state across eviction", name))
				return
			}
			_, err = tn.Repo().Apply(mustProgram(workload.EnterpriseProgram))
		}
		if err != nil {
			fail(fmt.Errorf("%s apply round %d: %w", name, round, err))
			return
		}
		applies.Add(1)
		base, _ := tn.Repo().Snapshot()
		for _, q := range []string{`E.isa -> empl.`, `E.isa -> empl / sal -> S.`} {
			if _, err := core.Query(base, q); err != nil {
				fail(fmt.Errorf("%s query: %w", name, err))
				return
			}
			queries.Add(1)
		}
	}

	start := time.Now()
	for round := 0; round < 2; round++ {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range jobs {
					visit(i, round)
				}
			}()
		}
		for i := 0; i < tenants; i++ {
			jobs <- i
		}
		close(jobs)
		wg.Wait()
	}
	elapsed := time.Since(start)
	if p := firstErr.Load(); p != nil {
		return nil, *p
	}

	resident, _, evictions, maxResident := mgr.Stats()
	ok := maxResident <= maxOpen && resident <= maxOpen && evictions > 0 &&
		applies.Load() == 2*tenants && queries.Load() == 4*tenants
	t.AddRow(tenants, maxOpen, applies.Load(), queries.Load(), ms(elapsed),
		evictions, maxResident, pass(ok))
	return t, nil
}
