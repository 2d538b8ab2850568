package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// analyze parses src as a single-file package with the given import path
// and returns the findings of one analyzer.
func analyze(t *testing.T, a *Analyzer, path, src string) []Finding {
	t.Helper()
	return analyzeFile(t, a, path, "fixture.go", src)
}

// analyzeFile is analyze for a fixture that goes by the given file name.
func analyzeFile(t *testing.T, a *Analyzer, path, filename, src string) []Finding {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, filename, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("fixture does not parse: %v", err)
	}
	pkg := &Package{Path: path, Fset: fset, Files: []*ast.File{f}}
	return Run([]*Package{pkg}, []*Analyzer{a})
}

func wantFindings(t *testing.T, got []Finding, substrs ...string) {
	t.Helper()
	if len(got) != len(substrs) {
		t.Fatalf("got %d finding(s), want %d:\n%v", len(got), len(substrs), got)
	}
	for i, want := range substrs {
		if !strings.Contains(got[i].Message, want) {
			t.Errorf("finding %d = %q, want substring %q", i, got[i].Message, want)
		}
	}
}

func TestFrozenmutate(t *testing.T) {
	const positive = `package x
func bad(r *Repo) {
	b, err := r.Head()
	if err != nil {
		return
	}
	b.Insert(f)          // finding: Head() hands out a frozen base
	c := b.Freeze()
	c.Remove(f)          // finding: explicit Freeze
}`
	got := analyze(t, Frozenmutate, "verlog/internal/x", positive)
	wantFindings(t, got, "b came from Head()", "c came from Freeze()")

	const negative = `package x
func good(r *Repo) {
	b, err := r.Head()
	if err != nil {
		return
	}
	b = b.Clone()        // re-derived: mutable again
	b.Insert(f)
	w := New()
	w.Insert(f)          // never frozen
	lru.Remove(victim)   // unrelated Remove on an untracked receiver
}`
	if got := analyze(t, Frozenmutate, "verlog/internal/x", negative); len(got) != 0 {
		t.Errorf("negative fixture flagged: %v", got)
	}

	// The objectbase package implements the discipline and is exempt.
	if got := analyze(t, Frozenmutate, "verlog/internal/objectbase", positive); len(got) != 0 {
		t.Errorf("objectbase package flagged: %v", got)
	}
}

func TestLockorder(t *testing.T) {
	const positive = `package x
func bad(r *Repo) {
	r.commitMu.Lock()
	r.diskMu.Lock()      // finding: inverted order
	r.diskMu.Unlock()
	r.commitMu.Unlock()
}`
	got := analyze(t, Lockorder, "verlog/internal/x", positive)
	wantFindings(t, got, "diskMu -> commitMu")

	// The early-exit unlock idiom must not fool the scanner into
	// believing the main path released the lock.
	const earlyExit = `package x
func bad(r *Repo) {
	r.commitMu.Lock()
	if r.closed {
		r.commitMu.Unlock()
		return
	}
	r.diskMu.Lock()      // finding: commitMu still held here
}`
	got = analyze(t, Lockorder, "verlog/internal/x", earlyExit)
	wantFindings(t, got, "diskMu.Lock() while commitMu is held")

	// The third level: applyMu is outermost, so taking it under either of
	// the other two inverts the order — a quiescing operation holds applyMu
	// while it waits for diskMu.
	const underDisk = `package x
func bad(r *Repo) {
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	r.applyMu.Lock()     // finding: applyMu comes first
	r.applyMu.Unlock()
	r.commitMu.Lock()
	r.applyMu.Lock()     // finding: under commitMu too (and still under diskMu)
}`
	got = analyze(t, Lockorder, "verlog/internal/x", underDisk)
	wantFindings(t, got,
		"applyMu.Lock() while diskMu is held",
		"applyMu.Lock() while diskMu is held",
		"applyMu.Lock() while commitMu is held")

	const negative = `package x
func quiesce(r *Repo) {
	r.applyMu.Lock()     // the full order, outermost first
	defer r.applyMu.Unlock()
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	r.commitMu.Lock()
	r.commitMu.Unlock()
}
func apply(r *Repo) {
	r.applyMu.Lock()
	r.commitMu.Lock()    // skipping a level keeps the order
	r.commitMu.Unlock()
	r.applyMu.Unlock()
	r.diskMu.Lock()      // applyMu released before the flush
	r.diskMu.Unlock()
}
func good(r *Repo) error {
	r.commitMu.Lock()
	if r.closed {
		r.commitMu.Unlock()
		return ErrClosed
	}
	b := r.pending
	r.commitMu.Unlock()
	r.diskMu.Lock()      // correct order: commitMu released first
	defer r.diskMu.Unlock()
	return r.flush(b)
}
func alsoGood(r *Repo) {
	r.diskMu.Lock()
	defer r.diskMu.Unlock()
	r.commitMu.Lock()    // nesting in the sanctioned order
	r.commitMu.Unlock()
}`
	if got := analyze(t, Lockorder, "verlog/internal/x", negative); len(got) != 0 {
		t.Errorf("negative fixture flagged: %v", got)
	}

	// A leaf lock is held for assignments only: a call under it, a Lock of
	// another mutex included, is a finding.
	const underLeaf = `package x
func bad(r *Repo) {
	r.planMu.Lock()
	r.plans[0] = newPlans() // finding
	r.applyMu.Lock()        // finding
	r.planMu.Unlock()
	r.applyMu.Unlock()
}
func evict(r *Repo) {
	arm()                   // before the lock: fine
	r.planMu.Lock()
	defer r.planMu.Unlock()
	if !r.used {
		r.plans[0] = nil
	}
	r.used = false
	other.mu.Lock()         // finding: still held through the defer
}`
	got = analyze(t, Lockorder, "verlog/internal/x", underLeaf)
	wantFindings(t, got,
		"call while planMu is held in bad",
		"call while planMu is held in bad",
		"call while planMu is held in evict")

	// The plan cache's lock is held for the slot read and the store; a
	// compile under it would make every query wait for another's planning.
	const planCache = `package x
func compileUnder(r *Repo, key uint64) {
	r.planMu.Lock()
	e := r.plans[key&31].ways[0]
	if e == nil {
		e = &planEntry{query: eval.PlanQuery(r.head, r.body)} // finding
	}
	r.plans[key&31].ways[0] = e
	r.planMu.Unlock()
}
func storeOnly(r *Repo, e *planEntry) {
	q := eval.PlanQuery(r.head, r.body) // before the lock: fine
	r.planMu.Lock()
	r.plans[e.key&31].ways[0] = e
	r.planMu.Unlock()
	use(q)
}`
	got = analyze(t, Lockorder, "verlog/internal/x", planCache)
	wantFindings(t, got, "call while planMu is held in compileUnder")
}

func TestCommitclock(t *testing.T) {
	const positive = `package x
func bad(r *Repo) {
	r.commitMu.Lock()
	start := time.Now()  // finding: clock probe inside the section
	r.seal()
	r.lat.Observe(time.Since(start)) // finding
	r.commitMu.Unlock()
}`
	got := analyze(t, Commitclock, "verlog/internal/x", positive)
	wantFindings(t, got, "time.Now()", "time.Since()")

	// A stage timer reads the clock where it opens and where it ends.
	const timer = `package x
func bad(r *Repo, sp *obs.Span, commit obs.Stage) {
	r.commitMu.Lock()
	wait := commit.Span().Stage("wait")       // finding: opens a stage
	child := sp.AddChild("seal", time.Now(), 0) // finding: time.Now()
	r.seal()
	child.End()                                 // finding
	r.lat = wait.End()                          // finding
	r.commitMu.Unlock()
	commit.End()                                // lock released
}`
	got = analyze(t, Commitclock, "verlog/internal/x", timer)
	wantFindings(t, got, "Stage()", "time.Now()", "End()", "End()")

	const negative = `package x
func good(r *Repo) {
	start := time.Now()              // before the section
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	defer func() {
		r.lat.Observe(time.Since(start)) // deferred: runs after return
	}()
	r.seal()
}
func alsoGood(r *Repo) {
	r.commitMu.Lock()
	b := r.pending
	r.commitMu.Unlock()
	syncStart := time.Now()          // probes the fsync, lock released
	b.file.Sync()
	r.fsyncLat.Observe(time.Since(syncStart))
}`
	if got := analyze(t, Commitclock, "verlog/internal/x", negative); len(got) != 0 {
		t.Errorf("negative fixture flagged: %v", got)
	}
}

func TestBoundedlabels(t *testing.T) {
	const positive = `package x
func bad(s *Server, name string) {
	s.reg.Counter("verlog_tenant_requests_total", "by tenant",
		"tenant", name).Inc() // finding: raw tenant name
}`
	got := analyze(t, Boundedlabels, "verlog/internal/x", positive)
	wantFindings(t, got, "BoundedLabels.Value")

	const negative = `package x
func good(s *Server, name string) {
	s.reg.Counter("verlog_tenant_requests_total", "by tenant",
		"tenant", s.tenantLabels.Value(name)).Inc()
	s.reg.Counter("verlog_http_requests_total", "by route",
		"route", route, "code", code).Inc() // non-tenant labels are free-form
	s.log.Info("msg", "tenant", name)       // not a metric constructor
}`
	if got := analyze(t, Boundedlabels, "verlog/internal/x", negative); len(got) != 0 {
		t.Errorf("negative fixture flagged: %v", got)
	}
}

// TestRepoIsClean runs every analyzer over this repository itself: the
// codebase must satisfy its own invariants (this is the same run CI does
// through cmd/verlog-lint).
func TestRepoIsClean(t *testing.T) {
	pkgs, err := Load("../..")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("Load found only %d packages — walker broken?", len(pkgs))
	}
	if got := Run(pkgs, All); len(got) != 0 {
		t.Errorf("the repository violates its own invariants:\n%v", got)
	}
}

func TestSpecimport(t *testing.T) {
	const src = `package x
import (
	"verlog/internal/spec"
	"verlog/internal/term"
)
var _ = spec.Run
var _ term.Fact`
	got := analyzeFile(t, Specimport, "verlog/internal/x", "x.go", src)
	wantFindings(t, got, "verlog/internal/spec is imported by a file that ships")
	if got := analyzeFile(t, Specimport, "verlog/internal/x", "x_test.go", src); len(got) != 0 {
		t.Errorf("a test file importing the spec is flagged: %v", got)
	}
	const unrelated = `package x
import "verlog/internal/specimen"`
	if got := analyzeFile(t, Specimport, "verlog/internal/x", "x.go", unrelated); len(got) != 0 {
		t.Errorf("an unrelated import is flagged: %v", got)
	}
}

func TestDropresult(t *testing.T) {
	const src = `package x
import "verlog/internal/core"
var opts = []core.Option{core.WithDropResult(), core.WithTrace()}
func commit() *core.Engine { return core.New(core.WithDropResult) }`
	got := analyzeFile(t, Dropresult, "verlog/internal/x", "x.go", src)
	wantFindings(t, got, "WithDropResult outside internal/repository", "WithDropResult outside internal/repository")
	if got := analyzeFile(t, Dropresult, "verlog/internal/repository", "repository.go", src); len(got) != 0 {
		t.Errorf("the repository's commit is flagged: %v", got)
	}
	if got := analyzeFile(t, Dropresult, "verlog", "bench_test.go", src); len(got) != 0 {
		t.Errorf("a test file building the option is flagged: %v", got)
	}
	const definition = `package core
func WithDropResult() Option { return func(e *Engine) { e.opts.DropResult = true } }
func WithTrace() Option { return func(e *Engine) { e.opts.Trace = true } }`
	if got := analyzeFile(t, Dropresult, "verlog/internal/core", "core.go", definition); len(got) != 0 {
		t.Errorf("the option's definition is flagged: %v", got)
	}
	const inCore = `package core
func commitEngine() *Engine { return New(WithDropResult()) }`
	got = analyzeFile(t, Dropresult, "verlog/internal/core", "core.go", inCore)
	wantFindings(t, got, "WithDropResult outside internal/repository")
}
