package repository

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"verlog/internal/storage"
	"verlog/internal/workload"
)

// TestAppendRecordIsEncodingJSON: the hand-written record payload is what
// encoding/json writes for the entry with HTML escaping off, and reads back
// as the entry; an apply's record and a constraints record alike.
func TestAppendRecordIsEncodingJSON(t *testing.T) {
	src := func(s string) *string { return &s }
	digest := func(a, b uint64) *storage.Digest { return &storage.Digest{a, b} }
	for _, e := range []Entry{
		{},
		{Seq: 1, Program: "r: mod[E].sal -> (S, S') <- E.sal -> S, S' = S + 1.\n", Fired: 3, Strata: 1},
		{Seq: 1 << 40, Program: "p.", Key: `k "quoted" \ <&> π`, Fired: -1, Strata: 2, Digest: digest(1<<63|0xabc, 42)},
		{Seq: 7, Program: "a\tb\r\n\x00\x1f\x7f", Key: "日本語 𝔘", Digest: digest(0, 0)},
		{Seq: 8, Constraints: src("cap: E.isa -> empl, E.sal -> S, S > 5000.\nnonneg: E.sal -> S, S < 0. % \"q\" \\ <&>\n")},
		{Seq: 9, Constraints: src("")},
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
		if err := json.Unmarshal(payload, &back); err != nil || !reflect.DeepEqual(back, e) {
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

// TestOpenRefusesPreviousFormat: testdata/pr14-dir was written by an
// earlier version — a gob snapshot and a journal whose diffs are arrays of
// fact objects. Open refuses it, naming the snapshot file and the
// migration, and leaves every byte of the directory as it was.
func TestOpenRefusesPreviousFormat(t *testing.T) {
	files := []string{"snapshot.bin", "journal.jsonl"}
	dir := copyFixture(t, "pr14-dir", files...)
	_, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), "holds snapshot.bin") || !strings.Contains(err.Error(), "cat snapshot.bin journal.jsonl") {
		t.Fatalf("Open = %v, want a refusal naming snapshot.bin and the migration", err)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != len(files) {
		t.Errorf("the directory holds %d files after Open, want %d", len(entries), len(files))
	}
	for _, f := range files {
		want, _ := os.ReadFile(filepath.Join("testdata", "pr14-dir", f))
		if got, err := os.ReadFile(filepath.Join(dir, f)); err != nil || !bytes.Equal(got, want) {
			t.Errorf("%s changed: %d bytes, want %d (%v)", f, len(got), len(want), err)
		}
	}
}

// TestOpenRefusesConstraintsFile: earlier versions kept the constraint set
// in constraints.vlg, beside the journal that now holds it. Open refuses a
// directory still holding that file, naming it, rather than open it without
// its set, and leaves every byte of the directory as it was.
func TestOpenRefusesConstraintsFile(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 1)
	if err := os.WriteFile(filepath.Join(r.Dir(), "constraints.vlg"), []byte("nonneg: E.sal -> S, S < 0.\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, r.Dir())
	if _, err := Open(r.Dir()); err == nil || !strings.Contains(err.Error(), "constraints.vlg") {
		t.Fatalf("Open = %v, want a refusal naming constraints.vlg", err)
	}
	if after := readDir(t, r.Dir()); !reflect.DeepEqual(after, before) {
		t.Errorf("Open changed the directory:\nbefore %q\nafter  %q", before, after)
	}
}

// TestOpenRefusesEpochFile: earlier versions kept the replication epoch in
// a file of its own, epoch, beside the journal that now holds it as
// records. Open refuses a directory still holding that file, naming it and
// the migration (promote the primary to the file's last epoch), and leaves
// every byte of the directory as it was.
func TestOpenRefusesEpochFile(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 1)
	if err := os.WriteFile(filepath.Join(r.Dir(), "epoch"), []byte("2 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, r.Dir())
	if _, err := Open(r.Dir()); err == nil || !strings.Contains(err.Error(), "holds epoch") || !strings.Contains(err.Error(), "/v1/repl/promote?epoch=") {
		t.Fatalf("Open = %v, want a refusal naming epoch and the migration", err)
	}
	if after := readDir(t, r.Dir()); !reflect.DeepEqual(after, before) {
		t.Errorf("Open changed the directory:\nbefore %q\nafter  %q", before, after)
	}
}

// readDir returns the contents of every file in dir, by name.
func readDir(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(data)
	}
	return files
}

// TestJournalBytesGuard pins what an update costs in the journal — exact
// counts, no timing. A record is the program text, a few dozen bytes of
// field names and integers, and the 32-digit digest of the state it leads
// to: a changed fact costs nothing.
func TestJournalBytesGuard(t *testing.T) {
	lastRecord := func(r *Repository) (Entry, int) {
		t.Helper()
		log := r.Log()
		e := log[len(log)-1]
		return e, len(e.AppendRecord(nil))
	}
	// What the record cost in the array form of earlier versions, when its
	// diff is empty: the fields without the diff's.
	oldSize := func(e Entry) int {
		t.Helper()
		payload, err := json.Marshal(struct {
			Seq     int    `json:"seq"`
			Program string `json:"program"`
			Key     string `json:"key,omitempty"`
			Fired   int    `json:"fired"`
			Strata  int    `json:"strata"`
		}{e.Seq, e.Program, e.Key, e.Fired, e.Strata})
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
	facts := e.NumAdded + e.NumRemoved
	if facts < 2000 {
		t.Fatalf("the raise changed %d facts, want two per employee", facts)
	}
	t.Logf("E1 n=1000: %d changed facts in a %d-byte record", facts, size)
	if size > 256 {
		t.Errorf("bulk update: a %d-byte record for %d changed facts, want <= 256 whatever it changes", size, facts)
	}
	// Nor does a changed fact cost anything in memory: the entry keeps its
	// program and two counts, no diff.
	if resident := int(unsafe.Sizeof(e)) + e.size(); resident > len(e.Program)+256 {
		t.Errorf("bulk update: the entry holds %d bytes for a %d-byte program, want at most 256 more", resident, len(e.Program))
	}

	// A one-object update.
	if _, _, _, err := ent.ApplyKey(prog(t, `mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.`), "0123456789abcdef"); err != nil {
		t.Fatal(err)
	}
	e, size = lastRecord(ent)
	t.Logf("point update: %d-byte record", size)
	if e.NumAdded != 1 || e.NumRemoved != 1 || size > 256 {
		t.Errorf("point update: +%d -%d facts in %d bytes, want one each in <= 256", e.NumAdded, e.NumRemoved, size)
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
	if e.NumAdded != 0 || e.NumRemoved != 0 || size > oldSize(e) {
		t.Errorf("empty-diff record: %d bytes for +%d -%d facts, want none and at most the %d of the previous format", size, e.NumAdded, e.NumRemoved, oldSize(e))
	}
}

// TestOpenRefusesSnapshotFile: directories of the previous layout kept the
// checkpoint in snapshot.bin, byte for byte the records that now head the
// journal. Open refuses such a directory, naming the file, and changes
// nothing; after the migration README gives (cat snapshot.bin
// journal.jsonl) it opens to the repository it was split from.
func TestOpenRefusesSnapshotFile(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 2)
	if err := r.SetConstraints(sweepCap); err != nil {
		t.Fatal(err)
	}
	r.SetRetention(func() int { return 3 })
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	applyRaises(t, r, 1)
	journal, err := os.ReadFile(filepath.Join(r.Dir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	split := len(journal) - len(records(r.Log()))
	dir := t.TempDir()
	for name, data := range map[string][]byte{"snapshot.bin": journal[:split], journalFile: journal[split:]} {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	before := readDir(t, dir)
	if _, err := Open(dir); err == nil || !strings.Contains(err.Error(), "holds snapshot.bin") {
		t.Fatalf("Open = %v, want a refusal naming snapshot.bin", err)
	}
	if after := readDir(t, dir); !reflect.DeepEqual(after, before) {
		t.Errorf("Open changed the directory:\nbefore %q\nafter  %q", before, after)
	}
	// cat snapshot.bin journal.jsonl > journal.new && mv journal.new journal.jsonl && rm snapshot.bin
	if err := os.WriteFile(filepath.Join(dir, journalFile), []byte(before["snapshot.bin"]+before[journalFile]), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, "snapshot.bin")); err != nil {
		t.Fatal(err)
	}
	migrated, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after the migration: %v", err)
	}
	head, _ := r.Head()
	got, _ := migrated.Head()
	if !got.Equal(head) || migrated.SnapshotSeq() != 3 || !bytes.Equal(records(migrated.Log()), records(r.Log())) ||
		migrated.Export().Constraints != sweepCap || len(migrated.Constraints()) != 1 {
		t.Errorf("the migrated repository differs: snapshot at %d, %d entries, constraints %q; want 3, %d, %q",
			migrated.SnapshotSeq(), migrated.Len(), migrated.Export().Constraints, r.Len(), sweepCap)
	}
}
