package repository

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/workload"
)

// TestAppendRecordIsEncodingJSON: the hand-written record payload is what
// encoding/json writes for the entry with HTML escaping off, and reads back
// as the entry.
func TestAppendRecordIsEncodingJSON(t *testing.T) {
	for _, e := range []Entry{
		{},
		{Seq: 1, Program: "r: mod[E].sal -> (S, S') <- E.sal -> S, S' = S + 1.\n", Fired: 3, Strata: 1},
		{Seq: 1 << 40, Program: "p.", Key: `k "quoted" \ <&> π`, Added: "e1.sal=2", Removed: "e1.sal=1/note='a b'", Fired: -1, Strata: 2},
		{Seq: 7, Program: "a\tb\r\n\x00\x1f\x7f", Key: "日本語 𝔘", Added: "x.m=1"},
	} {
		line := e.AppendRecord([]byte("kept"))
		if !bytes.HasPrefix(line, []byte("kept")) {
			t.Fatalf("AppendRecord dropped what dst held: %q", line)
		}
		payload, err := storage.ParseJournalLine(bytes.TrimSuffix(line[4:], []byte("\n")), 1)
		if err != nil {
			t.Fatalf("%+v: %v", e, err)
		}
		var want bytes.Buffer
		enc := json.NewEncoder(&want)
		enc.SetEscapeHTML(false)
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
		if string(payload)+"\n" != want.String() {
			t.Errorf("payload\n got %s\nwant %s", payload, want.String())
		}
		var back Entry
		if err := json.Unmarshal(payload, &back); err != nil || back != e {
			t.Errorf("payload %s reads back as %+v, %v", payload, back, err)
		}
	}
}

// copyFixture copies a testdata repository directory into a fresh one.
func copyFixture(t *testing.T, name string, files ...string) string {
	t.Helper()
	dir := t.TempDir()
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join("testdata", name, f))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, f), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestOpenDirectoryOfPreviousVersion: testdata/pr14-dir was written by the
// commit before journal diffs became compact fact lists — eight records
// whose diffs are arrays of FactRecord objects, among them two bulk raises
// (one leaving rationals), an object created, one deleted, a version proper
// folded away, method arguments, a string OID full of separators and an
// empty diff — together with states.txt, every At(k) as that commit's code
// rendered it. The directory must open, time-travel to exactly those
// states, take new-form records on top of the old ones, and survive
// reopening, both kinds of Compact and Verify.
func TestOpenDirectoryOfPreviousVersion(t *testing.T) {
	dir := copyFixture(t, "pr14-dir", "snapshot.bin", "journal.jsonl")
	raw, err := os.ReadFile(filepath.Join("testdata", "pr14-dir", "states.txt"))
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(string(raw), "== state ")[1:]
	for k := range want {
		_, want[k], _ = strings.Cut(want[k], " ==\n")
	}
	checkStates := func(r *Repository, from int) {
		t.Helper()
		for k := from; k < len(want); k++ {
			b, err := r.At(k - from)
			if err != nil {
				t.Fatalf("At(%d): %v", k-from, err)
			}
			if got := parser.FormatFacts(b, true); got != want[k] {
				t.Errorf("state %d differs from the one the previous version reconstructed:\n got:\n%swant:\n%s", k, got, want[k])
			}
		}
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec := r.Recovery(); !rec.Clean() || rec.Entries != 8 {
		t.Fatalf("recovery = %s, want clean with 8 entries", rec)
	}
	if len(want) != 9 {
		t.Fatalf("states.txt holds %d states, want 9", len(want))
	}
	checkStates(r, 0)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	log := r.Log()
	if log[0].Added.Len() != 42 || log[0].Removed.Len() != 43 || log[6].Added != "" || log[6].Key != "noop" {
		t.Errorf("entries read as +%d -%d facts (want +42 -43: 41 raises, and mod(v1) folded into v1), no-op %+v",
			log[0].Added.Len(), log[0].Removed.Len(), log[6])
	}
	if _, e, replayed, err := r.ApplyKey(prog(t, `x: ins[w9].kind -> widget.`), "create-1"); err != nil || !replayed || e.Seq != 2 {
		t.Errorf("idempotency key of an old record: entry %d, replayed %v, %v", e.Seq, replayed, err)
	}

	// New records on top: a bulk update, an object created, one deleted.
	for _, src := range []string{
		`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`,
		"a: ins[w2].kind -> widget.\nb: ins[w2].label -> \"two; words/here\".",
		`gone: del[w1].* <- w1.kind -> widget.`,
	} {
		if _, err := r.Apply(prog(t, src)); err != nil {
			t.Fatalf("apply %q: %v", src, err)
		}
		b, _ := r.Head()
		want = append(want, parser.FormatFacts(b, true))
	}
	journal, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(journal), "\n")
	if !strings.Contains(lines[0], `"added":[{"Object":`) || !strings.Contains(lines[8], `"added":"e1.sal=`) {
		t.Fatalf("the journal should now mix array-form and compact records:\n%.200s\n%.200s", lines[0], lines[8])
	}
	r.Close()

	if r, err = Open(dir); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rec := r.Recovery(); !rec.Clean() || rec.Entries != 11 {
		t.Fatalf("second recovery = %s, want clean with 11 entries", rec)
	}
	checkStates(r, 0)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify of the mixed journal: %v", err)
	}

	// A retention-preserving Compact folds five old records into the
	// snapshot and rewrites the rest — old ones included — in the new form.
	r.SetRetention(func() int { return 5 })
	if err := r.Compact(); err != nil {
		t.Fatalf("partial Compact: %v", err)
	}
	checkStates(r, 5)
	if journal, _ = os.ReadFile(filepath.Join(dir, journalFile)); bytes.Contains(journal, []byte(`"Object"`)) || bytes.Count(journal, []byte("\n")) != 6 {
		t.Errorf("the rewritten journal should hold six compact records:\n%.300s", journal)
	}
	r.Close()
	if r, err = Open(dir); err != nil {
		t.Fatalf("reopen after partial Compact: %v", err)
	}
	checkStates(r, 5)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify after partial Compact: %v", err)
	}
	r.SetRetention(nil)
	if err := r.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	checkStates(r, 11)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify after Compact: %v", err)
	}
}

// TestJournalBytesGuard pins what an update costs in the journal — exact
// counts, no timing. A changed fact costs what its text costs; a record's
// fixed part is the program text and a few dozen bytes of field names.
func TestJournalBytesGuard(t *testing.T) {
	lastRecord := func(r *Repository) (Entry, int) {
		t.Helper()
		log := r.Log()
		e := log[len(log)-1]
		return e, len(e.AppendRecord(nil))
	}
	// What the record cost before diffs were compact, for comparison.
	oldSize := func(e Entry) int {
		t.Helper()
		d, err := e.diff()
		if err != nil {
			t.Fatal(err)
		}
		old := struct {
			Seq     int                  `json:"seq"`
			Program string               `json:"program"`
			Key     string               `json:"key,omitempty"`
			Added   []storage.FactRecord `json:"added,omitempty"`
			Removed []storage.FactRecord `json:"removed,omitempty"`
			Fired   int                  `json:"fired"`
			Strata  int                  `json:"strata"`
		}{Seq: e.Seq, Program: e.Program, Key: e.Key, Fired: e.Fired, Strata: e.Strata}
		for _, f := range d.Added {
			old.Added = append(old.Added, storage.EncodeFact(f))
		}
		for _, f := range d.Removed {
			old.Removed = append(old.Removed, storage.EncodeFact(f))
		}
		payload, err := json.Marshal(old)
		if err != nil {
			t.Fatal(err)
		}
		return len(storage.FrameJournalRecord(payload))
	}

	// E1, the paper's salary raise, on 1 000 employees: every one changes.
	ent, err := Init(t.TempDir()+"/e1", workload.EnterpriseSpec{Employees: 1000, Seed: 1}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ent.Apply(prog(t, workload.SalaryRaiseProgram)); err != nil {
		t.Fatal(err)
	}
	e, size := lastRecord(ent)
	facts := e.Added.Len() + e.Removed.Len()
	if facts < 2000 {
		t.Fatalf("the raise changed %d facts, want two per employee", facts)
	}
	perFact := float64(size) / float64(facts)
	t.Logf("E1 n=1000: %d changed facts in a %d-byte record, %.1f B/fact (array form: %.1f)", facts, size, perFact, float64(oldSize(e))/float64(facts))
	if perFact > 24 {
		t.Errorf("bulk update: %.1f journal bytes per changed fact, want <= 24", perFact)
	}

	// A one-object update.
	if _, _, _, err := ent.ApplyKey(prog(t, `mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.`), "0123456789abcdef"); err != nil {
		t.Fatal(err)
	}
	e, size = lastRecord(ent)
	t.Logf("point update: %d-byte record (array form: %d)", size, oldSize(e))
	if e.Added.Len() != 1 || e.Removed.Len() != 1 || size > 256 {
		t.Errorf("point update: +%d -%d facts in %d bytes, want one each in <= 256", e.Added.Len(), e.Removed.Len(), size)
	}

	// The recursive ancestors program applied a second time derives nothing
	// new: its record is the program text, and must not have grown.
	gen, err := Init(t.TempDir()+"/anc", workload.GenealogySpec{Generations: 5, Branching: 2}.ObjectBase())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, _, _, err := gen.ApplyKey(prog(t, workload.AncestorsProgram), fmt.Sprintf("anc-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	e, size = lastRecord(gen)
	t.Logf("empty-diff re-apply: %d-byte record (before: %d)", size, oldSize(e))
	if e.Added != "" || e.Removed != "" || size > oldSize(e) {
		t.Errorf("empty-diff record: %d bytes with diff %q/%q, want none and at most the %d of the previous format", size, e.Added, e.Removed, oldSize(e))
	}
}
