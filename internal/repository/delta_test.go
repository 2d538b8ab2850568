package repository

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// A commit is a delta: the new head shares what the program left alone with
// the old one, and the journal record is read off the states that changed.
// These tests hold every such shortcut against the long way round — the
// generic Finalize, Compute over both bases, a flat deep copy, a journal
// replay from disk — after every single apply.

// checkedApply applies p under key and verifies the commit against its
// oracles. It returns the apply's own error (rejected programs are part of
// the corpus).
func checkedApply(t *testing.T, r *Repository, p *term.Program, key, what string) error {
	t.Helper()
	before, _ := r.Head()
	journal := filepath.Join(r.Dir(), journalFile)
	st, err := os.Stat(journal)
	if err != nil {
		t.Fatal(err)
	}
	res, entry, _, err := r.ApplyKey(p, key)
	if err != nil {
		return err
	}
	// The commit renders its diff straight into the record it appends; the
	// record is byte for byte the one the entry it returns writes.
	onDisk, err := os.ReadFile(journal)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := onDisk[st.Size():], entry.AppendRecord(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: the commit appended\n%s\nits entry writes\n%s", what, got, want)
	}
	after, _ := r.Head()
	if after != res.Final {
		t.Fatalf("%s: the published head is not the evaluation's updated base", what)
	}
	if after.Depth() > 1 || (after.Parent() != nil && after.Parent().Parent() != nil) {
		t.Fatalf("%s: head is %d layers deep, want a root and at most one delta layer", what, after.Depth())
	}
	// A commit returns no result(P): the oracle's comes from a run of its own
	// on the same (ob, P).
	if res.Result != nil {
		t.Fatalf("%s: the commit returned result(P)", what)
	}
	fix, err := eval.Run(before, p, eval.Options{})
	if err != nil {
		t.Fatalf("%s: the committed program fails on its own: %v", what, err)
	}
	if want := eval.Finalize(fix.Result); !after.Equal(want) || !want.Equal(after) {
		t.Fatalf("%s: head is not Finalize(result(P)):\ngot:\n%swant:\n%s", what,
			parser.FormatFacts(after, true), parser.FormatFacts(want, true))
	}
	// The changes went back to the evaluation's working memory with the
	// record written; the diff journaled is what the two heads differ by,
	// and what every read of the new head answers after it.
	if res.Changes != nil {
		t.Fatalf("%s: the commit returned its changes", what)
	}
	d, err := entry.diff()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if err := obtest.CheckDerived(before, after, d.Changes(before)); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	// The journaled record is byte for byte the one Compute would have
	// produced: same facts, same order, same counters.
	added, removed := storage.EncodeDiff(objectbase.Compute(before, after))
	want := Entry{
		Seq: entry.Seq, Program: parser.FormatProgram(p), Key: key, Added: added, Removed: removed,
		Fired: res.Fired, Strata: res.Assignment.NumStrata(),
	}
	if got, want := entry.AppendRecord(nil), want.AppendRecord(nil); !bytes.Equal(got, want) {
		t.Fatalf("%s: journal record differs from the one built with Compute:\n got %swant %s", what, got, want)
	}
	if log := r.Log(); len(log) == 0 || log[len(log)-1].Seq != entry.Seq {
		t.Fatalf("%s: entry %d is not the last of the resident log", what, entry.Seq)
	}
	if err := r.Verify(); err != nil {
		t.Fatalf("%s: Verify: %v", what, err)
	}
	return nil
}

// goldenSection extracts one "-- name --" section of a golden corpus file.
func goldenSection(src, name string) string {
	_, rest, ok := strings.Cut(src, "-- "+name+" --")
	if !ok {
		return ""
	}
	if i := strings.Index(rest, "\n-- "); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// TestGoldenCorpusCommitsAsDelta runs every golden case through a
// repository, twice (the second apply starts from an updated base, which is
// settled and usually a delta layer).
func TestGoldenCorpusCommitsAsDelta(t *testing.T) {
	files, err := filepath.Glob("../../testdata/golden/*.txt")
	if err != nil || len(files) == 0 {
		t.Fatalf("no golden cases found (%v)", err)
	}
	applied := 0
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			raw, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			initial, err := parser.ObjectBase(goldenSection(string(raw), "base"), file)
			if err != nil {
				t.Fatalf("base: %v", err)
			}
			p, err := parser.Program(goldenSection(string(raw), "program"), file)
			if err != nil {
				return // the unparsable cases test the parser, not the commit
			}
			r, err := Init(t.TempDir()+"/repo", initial)
			if err != nil {
				t.Fatal(err)
			}
			for round := 1; round <= 2; round++ {
				if err := checkedApply(t, r, p, "", fmt.Sprintf("apply %d", round)); err != nil {
					return // rejected by safety, stratification or linearity
				}
				applied++
			}
		})
	}
	if applied < 16 {
		t.Errorf("only %d golden applies committed; the corpus should yield at least 16", applied)
	}
}

// TestWorkloadCommitsAsDelta runs the programs of the four end-to-end
// workloads through checkedApply: point updates, bulk raises, the closure
// (a diff, then none) and keyed point updates.
func TestWorkloadCommitsAsDelta(t *testing.T) {
	point := func(k int) string { return fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", k, k) }
	for _, w := range []struct {
		name  string
		base  *objectbase.Base
		progs []string
		keyed bool
	}{
		{"point_update", workload.EnterpriseSpec{Employees: 120, Seed: 3}.ObjectBase(), []string{point(7), point(7), point(80)}, false},
		{"bulk_raise", workload.EnterpriseSpec{Employees: 120, Seed: 4}.ObjectBase(), []string{workload.BulkRaiseProgram, workload.BulkRaiseProgram}, false},
		{"recursive_closure", workload.GenealogySpec{Generations: 4, Branching: 2}.ObjectBase(), []string{workload.AncestorsProgram, workload.AncestorsProgram}, false},
		{"mixed_rw", workload.EnterpriseSpec{Employees: 120, Seed: 5}.ObjectBase(), []string{point(3), point(44), point(3)}, true},
	} {
		t.Run(w.name, func(t *testing.T) {
			r, err := Init(t.TempDir()+"/repo", w.base)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			for i, src := range w.progs {
				key := ""
				if w.keyed {
					key = fmt.Sprintf("k%d", i)
				}
				if err := checkedApply(t, r, prog(t, src), key, fmt.Sprintf("apply %d", i+1)); err != nil {
					t.Fatalf("apply %d: %v", i+1, err)
				}
			}
		})
	}
}

// randomProgram returns one step of the random workload: mostly updates of
// a single object, now and then one that touches many, creates an object,
// deletes one entirely or changes nothing.
func randomProgram(rng *rand.Rand, n, step int) string {
	e := fmt.Sprintf("e%d", rng.Intn(n))
	switch k := rng.Intn(20); {
	case k < 10:
		return fmt.Sprintf(`p: mod[%s].sal -> (S, S') <- %s.sal -> S, S' = S + %d.`, e, e, 1+rng.Intn(9))
	case k < 12:
		return fmt.Sprintf(`p: ins[%s].tag -> t%d <- %s.isa -> empl.`, e, step, e)
	case k < 14:
		return fmt.Sprintf(`p: del[%s].tag -> T <- %s.tag -> T.`, e, e)
	case k < 15:
		if e == "e0" { // the anchor of the re-creation rule below stays
			e = "e1"
		}
		return fmt.Sprintf(`p: del[%s].* <- %s.isa -> empl.`, e, e)
	case k < 17:
		// (Re-)create an object, possibly one deleted earlier.
		return fmt.Sprintf(`a: ins[%s].isa -> empl <- e0.isa -> C, !%s.isa -> empl.
b: ins[ins(%s)].sal -> %d <- ins(%s).isa -> empl.`, e, e, e, 1000+step, e)
	case k < 18:
		return `p: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`
	case k < 19:
		return fmt.Sprintf(`p: mod[E].sal -> (S, S') <- E.boss -> %s, E.sal -> S, S' = S + 5.`, e)
	default:
		return fmt.Sprintf(`p: mod[%s].sal -> (S, S) <- %s.sal -> S.`, e, e) // fires, changes nothing
	}
}

// TestRandomApplySequenceCommitsAsDelta drives a long random sequence
// through one repository. With 96 employees a delta layer holds at most six
// versions, so the head flattens dozens of times along the way.
func TestRandomApplySequenceCommitsAsDelta(t *testing.T) {
	const n = 96
	steps := 400
	if testing.Short() {
		steps = 120
	}
	rng := rand.New(rand.NewSource(14))
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 14}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	roots, layers, unchanged := 0, 0, 0
	var prev *objectbase.Base
	for step := 1; step <= steps; step++ {
		src := randomProgram(rng, n, step)
		if err := checkedApply(t, r, prog(t, src), "", fmt.Sprintf("step %d (%s)", step, src)); err != nil {
			t.Fatalf("step %d (%s): %v", step, src, err)
		}
		head, _ := r.Head()
		switch {
		case head == prev:
			unchanged++
		case head.Depth() == 0:
			roots++
		default:
			layers++
		}
		prev = head
		if step%64 == 0 {
			// Fold the journal into the snapshot now and then: it keeps the
			// per-step Verify replays short, and the snapshot written is
			// whatever shape the head has at that moment.
			if err := r.Compact(); err != nil {
				t.Fatalf("step %d: Compact: %v", step, err)
			}
		}
	}
	t.Logf("%d applies: %d new roots, %d delta layers, %d left the head as it was", steps, roots, layers, unchanged)
	if roots < 5 || layers < 5*roots/2 {
		t.Errorf("the sequence should cross the flatten threshold several times with delta layers in between: %d roots, %d layers", roots, layers)
	}
	// The journal file is the checkpoint of state 0 and the resident
	// entries' records, and nothing else.
	at0, _ := r.At(0)
	records := storage.Snapshot{Base: at0, Seq: r.SnapshotSeq()}.Append(nil)
	for _, e := range r.Log() {
		records = e.AppendRecord(records)
	}
	if onDisk, err := os.ReadFile(filepath.Join(r.Dir(), journalFile)); err != nil || !bytes.Equal(onDisk, records) {
		t.Errorf("journal file (%d bytes, %v) is not the %d bytes the checkpoint and the resident log encode to", len(onDisk), err, len(records))
	}
	// What a restart rebuilds from disk is the same base.
	head, _ := r.Head()
	r.Close()
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if reopened, _ := r2.Head(); !reopened.Equal(head) || !head.Equal(reopened) {
		t.Errorf("the reopened head differs from the one the sequence ended on")
	}
}

// scribble edits and then empties a mutable base in place.
func scribble(b *objectbase.Base) {
	for _, v := range b.Versions() {
		b.Insert(term.NewFact(v, "scribble", term.Int(1)))
		b.Remove(term.NewFact(v, "isa", term.Sym("empl")))
	}
	for _, v := range b.Versions() {
		b.SetState(v, nil)
	}
}

// TestPublishedHeadsNeverChange is the aliasing test: heads share states
// with their successors, so a reader holding head k must see exactly the
// same facts after a thousand further applies as before them, and writing
// to a clone of published state (the head, a past state At hands out
// frozen) must stay private.
// Run under -race, the concurrent readers also prove the sharing needs no
// synchronization.
func TestPublishedHeadsNeverChange(t *testing.T) {
	const n = 64
	applies := 1000
	if testing.Short() {
		applies = 200
	}
	r, err := Init(t.TempDir()+"/repo", workload.EnterpriseSpec{Employees: n, Seed: 3}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	type held struct {
		base *objectbase.Base
		text string
	}
	hold := func() held {
		h, _ := r.Head()
		return held{base: h, text: parser.FormatFacts(h, true)}
	}
	kept := []held{hold()}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			q, _ := parser.Query(`E.isa -> empl, E.sal -> S.`, "q")
			for {
				select {
				case <-stop:
					return
				default:
				}
				h, _ := r.Head()
				if _, err := eval.Query(h, q); err != nil {
					t.Errorf("query on a published head: %v", err)
					return
				}
				h.Index() // the lazy, shared index build races with nothing
			}
		}()
	}

	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= applies; i++ {
		if _, err := r.Apply(prog(t, randomProgram(rng, n, i))); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		if i%100 == 0 {
			kept = append(kept, hold())
		}
		if i%250 == 0 {
			// Scribble over private copies of published state: a clone of
			// the head, and one of a past state (which shares its states
			// with the snapshot and is frozen for that reason).
			h, _ := r.Head()
			scribble(h.Clone())
			at, err := r.At(i - 3)
			if err != nil {
				t.Fatal(err)
			}
			if !at.Frozen() {
				t.Fatalf("At(%d) returned a mutable base", i-3)
			}
			scribble(at.Clone())
		}
	}
	close(stop)
	wg.Wait()
	for i, k := range kept {
		if got := parser.FormatFacts(k.base, true); got != k.text {
			t.Errorf("head held since apply %d changed under the reader:\nthen:\n%snow:\n%s", i*100, k.text, got)
		}
		if err := obtest.SameAnswers(k.base, k.base.Clone().Freeze()); err != nil {
			t.Errorf("head held since apply %d: %v", i*100, err)
		}
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}
