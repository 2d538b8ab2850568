package repository

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"verlog/internal/term"
)

func applyRaises(t *testing.T, r *Repository, times int) {
	t.Helper()
	p := prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`)
	for i := 0; i < times; i++ {
		if _, err := r.Apply(p); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
}

func TestVerifyCleanRepository(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 3)
	if err := r.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 2)
	// Corrupt the journal: drop its first entry, the record after the
	// checkpoint.
	path := filepath.Join(r.Dir(), "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	start := bytes.LastIndexByte(data[:bytes.Index(data, []byte(`{"seq":1,`))], '\n') + 1
	end := start + bytes.IndexByte(data[start:], '\n') + 1
	if err := os.WriteFile(path, append(data[:start:start], data[end:]...), 0o644); err != nil {
		t.Fatal(err)
	}
	err = r.Verify()
	var ve *VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("err = %v, want VerifyError", err)
	}
}

func TestCompact(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 3)
	headBefore, err := r.Head()
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	// The journal is empty, the snapshot equals the old head, history is
	// reduced to state 0.
	if n := r.Len(); n != 0 {
		t.Errorf("Len = %d after compact", n)
	}
	at0, err := r.At(0)
	if err != nil || !at0.Equal(headBefore) {
		t.Errorf("state 0 != old head (%v)", err)
	}
	if _, err := r.At(1); !errors.Is(err, ErrNoSuchState) {
		t.Errorf("old states still reachable: %v", err)
	}
	// Work continues normally after compaction.
	applyRaises(t, r, 1)
	head, err := r.Head()
	if err != nil {
		t.Fatal(err)
	}
	if !head.Has(term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(140))) {
		t.Errorf("post-compact apply lost state")
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify after compact: %v", err)
	}
}

func TestEntriesRejectCorruptJSON(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 1)
	path := filepath.Join(r.Dir(), "journal.jsonl")
	if err := os.WriteFile(path, []byte("{not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Verify(); err == nil {
		t.Errorf("Verify passed on corrupt journal")
	}
}

func TestCompactRefusesCorrupted(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 1)
	// Corrupt the checkpoint by replacing it with a different base's one.
	other := newRepo(t, `mary.isa -> empl / sal -> 7.`)
	data, err := os.ReadFile(filepath.Join(other.Dir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range r.Log() {
		data = e.AppendRecord(data)
	}
	if err := os.WriteFile(filepath.Join(r.Dir(), journalFile), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := r.Compact(); err == nil {
		t.Fatalf("corrupted repository compacted")
	}
}
