package repository

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"verlog/internal/storage"
	"verlog/internal/term"
)

// TestOpenRecoversTornJournalTails: every kind of damaged final record is
// truncated away on Open, leaving a verifiable repository one entry short.
func TestOpenRecoversTornJournalTails(t *testing.T) {
	cases := []struct {
		name string
		tail func(valid []byte) []byte // corrupted tail appended to a valid journal
	}{
		{"half a framed record", func(v []byte) []byte {
			rec := storage.FrameJournalRecord([]byte(`{"seq":3,"program":"x."}`))
			return rec[:len(rec)/2]
		}},
		{"bad checksum", func(v []byte) []byte {
			return []byte("v1 00000000 " + `{"seq":3,"program":"x."}` + "\n")
		}},
		{"torn legacy json", func(v []byte) []byte {
			return []byte(`{"seq":3,"prog`)
		}},
		{"complete but missing newline", func(v []byte) []byte {
			return []byte(`{"seq":3,"program":"x."}`)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
			applyRaises(t, r, 2)
			jpath := filepath.Join(r.Dir(), "journal.jsonl")
			valid, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(jpath, append(append([]byte{}, valid...), tc.tail(valid)...), 0o644); err != nil {
				t.Fatal(err)
			}
			// The un-reopened repository reports the damage.
			if err := r.Verify(); err == nil {
				t.Error("Verify accepted a torn tail")
			}
			r2, err := Open(r.Dir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			rec := r2.Recovery()
			if !rec.TornTail || rec.Entries != 2 {
				t.Errorf("recovery = %s, want torn tail with 2 entries", rec)
			}
			if err := r2.Verify(); err != nil {
				t.Errorf("Verify after recovery: %v", err)
			}
			if n := r2.Len(); n != 2 {
				t.Errorf("Len = %d, want 2", n)
			}
			// And work continues.
			applyRaises(t, r2, 1)
			if err := r2.Verify(); err != nil {
				t.Errorf("Verify after post-recovery apply: %v", err)
			}
		})
	}
}

// TestOpenRejectsCorruptMiddle: damage followed by valid records is not a
// torn tail and must fail Open rather than be silently truncated.
func TestOpenRejectsCorruptMiddle(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 2)
	jpath := filepath.Join(r.Dir(), "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside the first record's payload.
	i := bytes.IndexByte(data, '{')
	data[i+1] ^= 0xff
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(r.Dir()); err == nil {
		t.Fatal("Open repaired a corrupt middle record")
	}
}

// TestOpenKeepsRefusedTailRecord: a complete final record whose checksum
// holds but whose payload is no entry — a wrong-typed field, or a diff in
// the array form of earlier versions — was written whole and acknowledged:
// Open refuses the journal instead of cutting the record away.
func TestOpenKeepsRefusedTailRecord(t *testing.T) {
	for name, payload := range map[string]string{
		"wrong-typed diff": `{"seq":3,"program":"x.","added":7,"fired":1,"strata":1}`,
		"array-form diff":  `{"seq":3,"program":"x.","added":[{"Object":{"Sort":0,"Sym":"henry"},"Method":"sal","Result":{"Sort":1,"Num":130,"Den":1}}],"fired":1,"strata":1}`,
	} {
		t.Run(name, func(t *testing.T) {
			r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
			applyRaises(t, r, 2)
			jpath := filepath.Join(r.Dir(), "journal.jsonl")
			valid, err := os.ReadFile(jpath)
			if err != nil {
				t.Fatal(err)
			}
			data := append(valid, storage.FrameJournalRecord([]byte(payload))...)
			if err := os.WriteFile(jpath, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var corrupt *storage.CorruptRecordError
			if _, err := Open(r.Dir()); !errors.As(err, &corrupt) || corrupt.Line != bytes.Count(data, []byte("\n")) {
				t.Fatalf("Open = %v, want a corrupt record at the last line", err)
			}
			if after, _ := os.ReadFile(jpath); !bytes.Equal(after, data) {
				t.Errorf("Open cut the journal from %d to %d bytes", len(data), len(after))
			}
		})
	}
}

// TestOpenCleansStaleTemps: leftover *.tmp files from crashed writers are
// removed on Open.
func TestOpenCleansStaleTemps(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 1)
	for _, junk := range []string{"head.bin.deadbeef.tmp", "snapshot.bin.0badf00d.tmp"} {
		if err := os.WriteFile(filepath.Join(r.Dir(), junk), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if rec := r2.Recovery(); rec.StaleTemps != 2 {
		t.Errorf("recovery = %s, want 2 stale temps removed", rec)
	}
	names, _ := os.ReadDir(r.Dir())
	for _, de := range names {
		if filepath.Ext(de.Name()) == ".tmp" {
			t.Errorf("stale temp survived: %s", de.Name())
		}
	}
}

// TestOpenRejectsUnframedJournal: a journal of bare-JSON lines (the format
// before records carried checksums, no longer read) is reported as
// corrupted — not truncated to nothing as a torn tail would be.
func TestOpenRejectsUnframedJournal(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	applyRaises(t, r, 2)
	jpath := filepath.Join(r.Dir(), "journal.jsonl")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var bare bytes.Buffer
	for i, line := range bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n")) {
		payload, err := storage.ParseJournalLine(line, i+1)
		if err != nil {
			t.Fatal(err)
		}
		bare.Write(payload)
		bare.WriteByte('\n')
	}
	if err := os.WriteFile(jpath, bare.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	var corrupt *storage.CorruptRecordError
	if _, err := Open(r.Dir()); !errors.As(err, &corrupt) || corrupt.Line != 1 {
		t.Fatalf("Open = %v, want a corrupt record at line 1", err)
	}
	if after, _ := os.ReadFile(jpath); !bytes.Equal(after, bare.Bytes()) {
		t.Error("Open modified a journal it refused")
	}
}

// TestApplyKeyIdempotent: the same key commits exactly one journal entry;
// the replayed answer carries the recorded entry; the key survives reopen
// and is forgotten by Compact.
func TestApplyKeyIdempotent(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	p := prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`)

	res, entry, replayed, err := r.ApplyKey(p, "key-1")
	if err != nil || replayed || res == nil || entry.Seq != 1 {
		t.Fatalf("first ApplyKey = (%v, %+v, %v, %v)", res, entry, replayed, err)
	}
	res2, entry2, replayed2, err := r.ApplyKey(p, "key-1")
	if err != nil || !replayed2 || res2 != nil {
		t.Fatalf("retried ApplyKey = (%v, %v, %v)", res2, replayed2, err)
	}
	if entry2.Seq != 1 || entry2.Fired != entry.Fired {
		t.Errorf("replayed entry = %+v, want the original", entry2)
	}
	if n := r.Len(); n != 1 {
		t.Fatalf("Len = %d after retried apply, want 1", n)
	}

	// Keys persist across Open: they are recorded in the journal.
	r2, err := Open(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, replayed, err := r2.ApplyKey(p, "key-1"); err != nil || !replayed {
		t.Fatalf("reopened ApplyKey replayed = %v, %v", replayed, err)
	}
	if n := r2.Len(); n != 1 {
		t.Errorf("Len = %d after reopen retry, want 1", n)
	}

	// A different key fires normally.
	if _, _, replayed, err := r2.ApplyKey(p, "key-2"); err != nil || replayed {
		t.Fatalf("fresh key replayed = %v, %v", replayed, err)
	}

	// Compact clears the dedup window along with the journal.
	if err := r2.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, replayed, err := r2.ApplyKey(p, "key-1"); err != nil || replayed {
		t.Fatalf("post-compact ApplyKey replayed = %v, %v", replayed, err)
	}
}

// TestRepositoryConcurrentApply hammers Repository.Apply directly from
// many goroutines (the HTTP server path has its own lock; this exercises
// the repository's). Run with -race. Every raise must land exactly once.
func TestRepositoryConcurrentApply(t *testing.T) {
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	const workers, rounds = 4, 3
	p := prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`)

	var wg sync.WaitGroup
	errs := make(chan error, workers*rounds)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if _, _, _, err := r.ApplyKey(p, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- err
					return
				}
				if _, err := r.Head(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	head, err := r.Head()
	if err != nil {
		t.Fatal(err)
	}
	want := term.NewFact(term.GVID{Object: term.Sym("henry")}, "sal", term.Int(100+10*workers*rounds))
	if !head.Has(want) {
		t.Fatalf("head missing %s — some applies were lost or doubled", want)
	}
	if n := r.Len(); n != workers*rounds {
		t.Errorf("Len = %d, want %d", n, workers*rounds)
	}
	if err := r.Verify(); err != nil {
		t.Errorf("Verify: %v", err)
	}
}

// TestCheckpointDamageRefused: a journal cut, or with one byte flipped,
// anywhere inside its checkpoint is refused by Open, which leaves every
// byte as it was: a checkpoint is written whole, so damage to it is never
// cut away as a torn tail. Journals with entries after the checkpoint and
// without.
func TestCheckpointDamageRefused(t *testing.T) {
	for _, applies := range []int{0, 2} {
		r := newRepo(t, "henry.isa -> empl / sal -> 100.\nmary.isa -> empl / sal -> 200.")
		applyRaises(t, r, applies)
		path := filepath.Join(r.Dir(), journalFile)
		journal, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		refused := func(what string, data []byte) {
			t.Helper()
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			var torn *storage.TornTailError
			if _, err := Open(r.Dir()); err == nil || errors.As(err, &torn) {
				t.Errorf("%d applies, %s: Open = %v, want a refusal", applies, what, err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Errorf("%d applies, %s: Open cut the journal from %d to %d bytes", applies, what, len(data), len(after))
			}
		}
		damaged := make([]byte, len(journal))
		for i := range len(journal) - len(records(r.Log())) {
			copy(damaged, journal)
			damaged[i] ^= 0xff
			refused(fmt.Sprintf("byte %d flipped", i), damaged)
			refused(fmt.Sprintf("cut at byte %d", i), journal[:i])
		}
	}
}

// TestDirectoryHoldsTheLogOnly: after Init, InitAt, ResetToSnapshot,
// both kinds of Compact and a promotion a repository directory holds
// journal.jsonl and nothing else.
func TestDirectoryHoldsTheLogOnly(t *testing.T) {
	holds := func(what string, r *Repository, want ...string) {
		t.Helper()
		entries, err := os.ReadDir(r.Dir())
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, e := range entries {
			got = append(got, e.Name())
		}
		if !slices.Equal(got, want) {
			t.Errorf("after %s the directory holds %q, want %q", what, got, want)
		}
	}
	r := newRepo(t, `henry.isa -> empl / sal -> 100.`)
	holds("Init", r, journalFile)
	applyRaises(t, r, 3)
	r.SetRetention(func() int { return 1 })
	if err := r.Compact(); err != nil || r.SnapshotSeq() != 1 {
		t.Fatalf("Compact to 1: %v, snapshot at %d", err, r.SnapshotSeq())
	}
	holds("a Compact that keeps a tail", r, journalFile)
	r.SetRetention(nil)
	if err := r.Compact(); err != nil || r.Len() != 0 {
		t.Fatalf("full Compact: %v, %d entries left", err, r.Len())
	}
	holds("a full Compact", r, journalFile)
	if err := r.AdvanceEpoch(2); err != nil {
		t.Fatal(err)
	}
	holds("AdvanceEpoch", r, journalFile)
	snap := r.Export()
	snap.Seq = 9
	if err := r.ResetToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	holds("ResetToSnapshot", r, journalFile)
	at, err := InitAt(t.TempDir()+"/at", r.Export())
	if err != nil {
		t.Fatal(err)
	}
	holds("InitAt", at, journalFile)
}
