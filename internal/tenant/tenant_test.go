package tenant_test

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"verlog/internal/core"
	"verlog/internal/fsio"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/tenant"
	"verlog/internal/term"
)

func prog(t *testing.T, src string) *term.Program {
	t.Helper()
	p, err := parser.Program(src, "t.vlg")
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	return p
}

// apply runs one ground insert against the tenant's repository.
func apply(t *testing.T, tn *tenant.Tenant, fact string) {
	t.Helper()
	if _, err := tn.Repo().Apply(prog(t, fact)); err != nil {
		t.Fatalf("apply %q to %s: %v", fact, tn.Name(), err)
	}
}

func TestInvalidNames(t *testing.T) {
	m := tenant.NewManager(t.TempDir())
	defer m.Close()
	for _, name := range []string{
		"", "-leading", "_leading", "UPPER", "has space", "a/b", "..",
		"dot.dot", "é", "0123456789012345678901234567890123456789012345678901234567890123x", // 65 chars
	} {
		if _, err := m.Acquire(name, true); !errors.Is(err, tenant.ErrInvalidName) {
			t.Errorf("Acquire(%q) = %v, want ErrInvalidName", name, err)
		}
		if err := m.Delete(name); !errors.Is(err, tenant.ErrInvalidName) {
			t.Errorf("Delete(%q) = %v, want ErrInvalidName", name, err)
		}
	}
	for _, name := range []string{"a", "default", "acme-corp", "t_1", "0x9", "a123456789012345678901234567890123456789012345678901234567890123"} {
		tn, err := m.Acquire(name, true)
		if err != nil {
			t.Errorf("Acquire(%q) = %v, want ok", name, err)
			continue
		}
		m.Release(tn)
	}
}

func TestAcquireMissingTenant(t *testing.T) {
	root := t.TempDir()
	m := tenant.NewManager(root)
	defer m.Close()
	if _, err := m.Acquire("ghost", false); !errors.Is(err, tenant.ErrNotFound) {
		t.Fatalf("Acquire(ghost) = %v, want ErrNotFound", err)
	}
	// Creating it makes later non-create acquires succeed, even after the
	// manager forgets it (fresh manager over the same root).
	tn, err := m.Acquire("ghost", true)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	m.Release(tn)
	m.Close()
	m2 := tenant.NewManager(root)
	defer m2.Close()
	tn, err = m2.Acquire("ghost", false)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	m2.Release(tn)
}

// TestConcurrentFirstOpen: many goroutines race the first Acquire of one
// tenant; exactly one open must win and everyone must see that instance.
func TestConcurrentFirstOpen(t *testing.T) {
	m := tenant.NewManager(t.TempDir())
	defer m.Close()
	const workers = 32
	var wg sync.WaitGroup
	got := make([]*tenant.Tenant, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn, err := m.Acquire("shared", true)
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
				return
			}
			got[i] = tn
		}(i)
	}
	wg.Wait()
	for i := 1; i < workers; i++ {
		if got[i] != got[0] {
			t.Fatalf("worker %d got a different tenant instance", i)
		}
	}
	_, opens, _, _ := m.Stats()
	if opens != 1 {
		t.Fatalf("opens = %d, want 1 (single-flight violated)", opens)
	}
	for _, tn := range got {
		m.Release(tn)
	}
}

// TestLRUEviction: with a cap of 2, touching a third tenant evicts the
// least-recently-used idle one, and reacquiring the victim reopens it
// from disk with its state intact.
func TestLRUEviction(t *testing.T) {
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(2))
	defer m.Close()
	open := func(name string) *tenant.Tenant {
		tn, err := m.Acquire(name, true)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		return tn
	}
	a := open("a")
	apply(t, a, `ins[x].owner -> a.`)
	m.Release(a)
	b := open("b")
	m.Release(b)
	c := open("c") // must evict a (LRU)
	m.Release(c)
	_, _, evictions, maxRes := m.Stats()
	if evictions != 1 {
		t.Fatalf("evictions = %d, want 1", evictions)
	}
	if maxRes > 2 {
		t.Fatalf("max resident = %d, exceeds cap 2", maxRes)
	}
	// The evicted repository refuses further use...
	if _, err := a.Repo().Apply(prog(t, `ins[x].stale -> yes.`)); !errors.Is(err, repository.ErrClosed) {
		t.Fatalf("apply to evicted tenant = %v, want repository.ErrClosed", err)
	}
	// ...and reacquiring reopens from disk with the data intact.
	a2 := open("a")
	defer m.Release(a2)
	if a2 == a {
		t.Fatal("reacquire returned the evicted instance")
	}
	head, err := a2.Repo().Head()
	if err != nil {
		t.Fatalf("Head: %v", err)
	}
	want := term.NewFact(term.GVID{Object: term.Sym("x")}, "owner", term.Sym("a"))
	if !head.Has(want) {
		t.Fatalf("reopened tenant lost its data:\n%s", parser.FormatFacts(head, true))
	}
}

// TestFleetUnderResidencyCap: a worker pool, the way verlog-server drives
// the manager, visits a fleet of tenants twice in the same order under a cap
// a fifth of the fleet, with fewer workers than the cap (so no Acquire may
// answer ErrTooMany). The first round creates each tenant and commits its own
// fact; by the second, all but the most recent cap tenants were evicted, and
// each must reopen from disk still holding that fact. Residency never
// exceeds the cap, evictions occur, and every apply and query succeeds.
func TestFleetUnderResidencyCap(t *testing.T) {
	const (
		tenants = 40
		maxOpen = 8
		workers = 4
	)
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(maxOpen))
	defer m.Close()
	own := func(i int) term.Fact {
		return term.NewFact(term.GVID{Object: term.Sym(fmt.Sprintf("t%d", i))}, "seeded", term.Int(int64(i)))
	}
	raise := prog(t, `r: mod[E].sal -> (S, S') <- E.sal -> S, S' = S + 1.`)
	var applies, queries atomic.Int64
	visit := func(i, round int) {
		name := fmt.Sprintf("tenant-%02d", i)
		tn, err := m.Acquire(name, round == 0)
		if err != nil {
			t.Errorf("Acquire(%s) round %d: %v", name, round, err)
			return
		}
		defer m.Release(tn)
		p := raise
		if round == 0 {
			p = prog(t, fmt.Sprintf(`ins[t%d].seeded -> %d. ins[t%d].sal -> 100.`, i, i, i))
		} else if head, err := tn.Repo().Head(); err != nil || !head.Has(own(i)) {
			t.Errorf("%s lost its state across eviction (err %v)", name, err)
			return
		}
		if _, err := tn.Repo().Apply(p); err != nil {
			t.Errorf("%s apply round %d: %v", name, round, err)
			return
		}
		applies.Add(1)
		base, _ := tn.Repo().Snapshot()
		bs, err := core.Query(base, `E.seeded -> N / sal -> S.`)
		if err != nil || len(bs) != 1 {
			t.Errorf("%s query round %d: %d answers, %v", name, round, len(bs), err)
			return
		}
		queries.Add(1)
	}
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
	resident, _, evictions, maxResident := m.Stats()
	if resident > maxOpen || maxResident > maxOpen {
		t.Errorf("resident %d, at most %d; cap %d", resident, maxResident, maxOpen)
	}
	if evictions == 0 {
		t.Error("no tenant was evicted")
	}
	if applies.Load() != 2*tenants || queries.Load() != 2*tenants {
		t.Errorf("%d applies and %d queries succeeded, want %d each", applies.Load(), queries.Load(), 2*tenants)
	}
}

// TestBusyTenantNotEvicted: a tenant with a reference held survives
// eviction pressure; when every resident tenant is busy, Acquire of a new
// one fails with ErrTooMany instead of exceeding the cap.
func TestBusyTenantNotEvicted(t *testing.T) {
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(1))
	defer m.Close()
	a, err := m.Acquire("a", true)
	if err != nil {
		t.Fatalf("Acquire(a): %v", err)
	}
	if _, err := m.Acquire("b", true); !errors.Is(err, tenant.ErrTooMany) {
		t.Fatalf("Acquire(b) with a busy = %v, want ErrTooMany", err)
	}
	apply(t, a, `ins[x].alive -> yes.`) // still usable: not evicted
	m.Release(a)
	b, err := m.Acquire("b", true)
	if err != nil {
		t.Fatalf("Acquire(b) after release: %v", err)
	}
	m.Release(b)
}

// TestEvictionRacesApply: applies hammer a set of tenants while acquires
// of other tenants force constant eviction. Run under -race. An apply may
// never observe ErrClosed while its caller holds a reference.
func TestEvictionRacesApply(t *testing.T) {
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(3))
	defer m.Close()
	const (
		tenants = 8
		workers = 8
		rounds  = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				name := fmt.Sprintf("t%d", (w+i)%tenants)
				tn, err := m.Acquire(name, true)
				if errors.Is(err, tenant.ErrTooMany) {
					continue // all residents busy; acceptable under pressure
				}
				if err != nil {
					t.Errorf("Acquire(%s): %v", name, err)
					return
				}
				fact := fmt.Sprintf(`ins[w%d].round -> %d.`, w, i)
				if _, err := tn.Repo().Apply(prog(t, fact)); err != nil {
					t.Errorf("apply to %s with ref held: %v", name, err)
				}
				m.Release(tn)
			}
		}(w)
	}
	wg.Wait()
	_, _, evictions, maxRes := m.Stats()
	if maxRes > 3 {
		t.Fatalf("max resident = %d, exceeds cap 3", maxRes)
	}
	if evictions == 0 {
		t.Fatalf("workload produced no evictions; test exerted nothing")
	}
}

// TestEvictionPreservesIdempotency: an idempotency key consumed before
// eviction still replays (not re-executes) after the tenant is reopened,
// because keys are rebuilt from the journal during recovery.
func TestEvictionPreservesIdempotency(t *testing.T) {
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(1))
	defer m.Close()
	a, err := m.Acquire("a", true)
	if err != nil {
		t.Fatalf("Acquire(a): %v", err)
	}
	p := prog(t, `ins[x].hits -> here.`)
	_, e1, replayed, err := a.Repo().ApplyKey(p, "key-1")
	if err != nil || replayed {
		t.Fatalf("first ApplyKey: seq=%d replayed=%v err=%v", e1.Seq, replayed, err)
	}
	m.Release(a)
	// Force eviction by opening another tenant past the cap of 1.
	b, err := m.Acquire("b", true)
	if err != nil {
		t.Fatalf("Acquire(b): %v", err)
	}
	m.Release(b)
	if _, _, evictions, _ := m.Stats(); evictions == 0 {
		t.Fatal("tenant a was not evicted")
	}
	a2, err := m.Acquire("a", false)
	if err != nil {
		t.Fatalf("reacquire a: %v", err)
	}
	defer m.Release(a2)
	_, e2, replayed, err := a2.Repo().ApplyKey(p, "key-1")
	if err != nil {
		t.Fatalf("replay ApplyKey: %v", err)
	}
	if !replayed || e2.Seq != e1.Seq {
		t.Fatalf("after eviction+reopen: replayed=%v seq=%d, want replay of seq %d", replayed, e2.Seq, e1.Seq)
	}
}

// TestCrashIsolatedToOneTenant: a crash mid-apply in one tenant must not
// corrupt its neighbors — each tenant has its own journal. The fault
// filesystem counts durable operations across the whole manager, so we
// populate two tenants, arm the failpoint, and crash the third.
func TestCrashIsolatedToOneTenant(t *testing.T) {
	root := t.TempDir()
	f := fsio.NewFault()
	m := tenant.NewManager(root, tenant.WithFS(f))
	seed := func(name, fact string) {
		tn, err := m.Acquire(name, true)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		apply(t, tn, fact)
		m.Release(tn)
	}
	seed("alpha", `ins[x].home -> alpha.`)
	seed("beta", `ins[x].home -> beta.`)

	// Crash a few durable ops into tenant gamma's first apply.
	f.FailAt(f.Count()+3, true)
	tn, err := m.Acquire("gamma", true)
	var applyErr error
	if err == nil {
		_, applyErr = tn.Repo().Apply(prog(t, `ins[x].home -> gamma.`))
		m.Release(tn)
	} else {
		applyErr = err
	}
	if applyErr == nil {
		t.Fatal("gamma's apply survived the armed failpoint")
	}
	if !errors.Is(applyErr, fsio.ErrInjected) {
		t.Fatalf("gamma failed with a real error: %v", applyErr)
	}
	m.Close()

	// "Reboot": a fresh manager over the same root on the real filesystem.
	m2 := tenant.NewManager(root)
	defer m2.Close()
	for _, name := range []string{"alpha", "beta"} {
		tn, err := m2.Acquire(name, false)
		if err != nil {
			t.Fatalf("reopen %s after gamma's crash: %v", name, err)
		}
		if err := tn.Repo().Verify(); err != nil {
			t.Fatalf("%s corrupted by gamma's crash: %v", name, err)
		}
		head, err := tn.Repo().Head()
		if err != nil {
			t.Fatalf("%s Head: %v", name, err)
		}
		want := term.NewFact(term.GVID{Object: term.Sym("x")}, "home", term.Sym(name))
		if !head.Has(want) {
			t.Fatalf("%s lost its fact:\n%s", name, parser.FormatFacts(head, true))
		}
	}
	// Gamma itself either never became a repository or recovers cleanly.
	if tn, err := m2.Acquire("gamma", false); err == nil {
		if verr := tn.Repo().Verify(); verr != nil {
			t.Fatalf("gamma recovered inconsistently: %v", verr)
		}
		m2.Release(tn)
	} else if !errors.Is(err, tenant.ErrNotFound) {
		t.Fatalf("reopening gamma: %v", err)
	}
}

// TestDeleteLifecycle: busy tenants refuse deletion; idle ones are
// removed from disk; deleting a never-resident tenant removes its dir.
func TestDeleteLifecycle(t *testing.T) {
	m := tenant.NewManager(t.TempDir())
	defer m.Close()
	a, err := m.Acquire("a", true)
	if err != nil {
		t.Fatalf("Acquire: %v", err)
	}
	if err := m.Delete("a"); !errors.Is(err, tenant.ErrBusy) {
		t.Fatalf("Delete busy = %v, want ErrBusy", err)
	}
	m.Release(a)
	if err := m.Delete("a"); err != nil {
		t.Fatalf("Delete idle: %v", err)
	}
	if _, err := m.Acquire("a", false); !errors.Is(err, tenant.ErrNotFound) {
		t.Fatalf("Acquire after delete = %v, want ErrNotFound", err)
	}
	if err := m.Delete("never"); !errors.Is(err, tenant.ErrNotFound) {
		t.Fatalf("Delete missing = %v, want ErrNotFound", err)
	}
}

// TestList: disk-only and resident tenants both appear; only resident
// ones report a seq.
func TestList(t *testing.T) {
	m := tenant.NewManager(t.TempDir(), tenant.WithMaxOpen(1))
	defer m.Close()
	for _, name := range []string{"one", "two"} {
		tn, err := m.Acquire(name, true)
		if err != nil {
			t.Fatalf("Acquire(%s): %v", name, err)
		}
		apply(t, tn, `ins[x].k -> v.`)
		m.Release(tn)
	}
	infos, err := m.List()
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if len(infos) != 2 || infos[0].Name != "one" || infos[1].Name != "two" {
		t.Fatalf("List = %+v", infos)
	}
	for _, info := range infos {
		if info.SizeBytes == 0 {
			t.Errorf("%s: size 0", info.Name)
		}
		if info.Resident {
			if info.Seq == nil || *info.Seq != 1 {
				t.Errorf("%s resident without seq 1: %+v", info.Name, info)
			}
		} else if info.Seq != nil {
			t.Errorf("%s evicted but reports a seq", info.Name)
		}
	}
	if infos[0].Resident || !infos[1].Resident {
		t.Fatalf("with cap 1, only the last-touched tenant is resident: %+v", infos)
	}
}

// TestRepositoryClose: Close quiesces — later mutations fail with
// ErrClosed while reads keep serving the published head.
func TestRepositoryClose(t *testing.T) {
	dir := t.TempDir() + "/repo"
	initial, err := parser.ObjectBase(`henry.isa -> empl / sal -> 1000.`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	r, err := repository.Init(dir, initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	if _, err := r.Apply(prog(t, `ins[henry].level -> 3.`)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := r.Apply(prog(t, `ins[henry].level -> 4.`)); !errors.Is(err, repository.ErrClosed) {
		t.Fatalf("Apply after Close = %v, want ErrClosed", err)
	}
	if err := r.Compact(); !errors.Is(err, repository.ErrClosed) {
		t.Fatalf("Compact after Close = %v, want ErrClosed", err)
	}
	if err := r.Verify(); !errors.Is(err, repository.ErrClosed) {
		t.Fatalf("Verify after Close = %v, want ErrClosed", err)
	}
	head, err := r.Head()
	if err != nil {
		t.Fatalf("Head after Close: %v", err)
	}
	want := term.NewFact(term.GVID{Object: term.Sym("henry")}, "level", term.Int(3))
	if !head.Has(want) {
		t.Fatalf("closed head lost data:\n%s", parser.FormatFacts(head, true))
	}
	// Reopening recovers everything.
	r2, err := repository.Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	if h, _ := r2.Head(); !h.Equal(head) {
		t.Fatal("reopened head differs from closed head")
	}
}
