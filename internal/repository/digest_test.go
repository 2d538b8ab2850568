package repository

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/storage"
	"verlog/internal/workload"
)

// forge returns the journal with the record of seq rewritten by edit, under
// a checksum that holds: damage the frame cannot see.
func forge(t *testing.T, journal []byte, seq int, edit func(payload []byte) []byte) []byte {
	t.Helper()
	lines := bytes.SplitAfter(journal, []byte("\n"))
	for i, line := range lines {
		payload, err := storage.ParseJournalLine(bytes.TrimSuffix(line, []byte("\n")), i+1)
		if err != nil || !bytes.HasPrefix(payload, fmt.Appendf(nil, `{"seq":%d,`, seq)) {
			continue
		}
		lines[i] = storage.FrameJournalRecord(edit(bytes.Clone(payload)))
		return bytes.Join(lines, nil)
	}
	t.Fatalf("the journal holds no record of seq %d", seq)
	return nil
}

// forgeDigest changes the first digit of a record's digest.
func forgeDigest(t *testing.T) func([]byte) []byte {
	return func(payload []byte) []byte {
		at := bytes.Index(payload, []byte(`"digest":"`)) + len(`"digest":"`)
		if at < len(`"digest":"`) {
			t.Fatalf("the record carries no digest: %s", payload)
		}
		payload[at] = lowerHexDigits[(strings.IndexByte(lowerHexDigits, payload[at])+1)%16]
		return payload
	}
}

const lowerHexDigits = "0123456789abcdef"

// forgeFired adds one to a record's fired count.
func forgeFired(t *testing.T) func([]byte) []byte {
	return func(payload []byte) []byte {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			t.Fatal(err)
		}
		return bytes.Replace(payload, fmt.Appendf(nil, `"fired":%d,`, e.Fired), fmt.Appendf(nil, `"fired":%d,`, e.Fired+1), 1)
	}
}

// raisedRepo is a repository of three employees that took three raises of
// one employee each, and its journal's bytes.
func raisedRepo(t *testing.T) (*Repository, []byte) {
	t.Helper()
	r := newRepo(t, "e1.isa -> empl / sal -> 100.\ne2.isa -> empl / sal -> 200.\ne3.isa -> empl / sal -> 300.")
	for k := 1; k <= 3; k++ {
		if _, err := r.Apply(prog(t, fmt.Sprintf("mod[e%d].sal -> (S, S') <- e%d.sal -> S, S' = S + 1.", k, k))); err != nil {
			t.Fatal(err)
		}
	}
	journal, err := os.ReadFile(filepath.Join(r.Dir(), journalFile))
	if err != nil {
		t.Fatal(err)
	}
	return r, journal
}

// TestOpenRefusesForgedRecords: a record whose digest or fired count its
// program does not derive, its checksum intact, is refused by Open as a
// corrupt record in the middle of the journal is — naming its seq — and the
// file is left byte for byte as it was. So is the same record the last of
// the journal: a record written whole is never cut as a torn tail.
func TestOpenRefusesForgedRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(t *testing.T) func([]byte) []byte
	}{{"digest", forgeDigest}, {"fired", forgeFired}} {
		for _, seq := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s of entry %d", c.name, seq), func(t *testing.T) {
				r, journal := raisedRepo(t)
				r.Close()
				tampered := forge(t, journal, seq, c.edit(t))
				path := filepath.Join(r.Dir(), journalFile)
				if err := os.WriteFile(path, tampered, 0o644); err != nil {
					t.Fatal(err)
				}
				_, err := Open(r.Dir())
				if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), fmt.Sprintf("entry %d:", seq)) {
					t.Fatalf("Open = %v, want ErrDiverged naming entry %d", err, seq)
				}
				if after, _ := os.ReadFile(path); !bytes.Equal(after, tampered) {
					t.Errorf("Open changed the journal it refused: %d bytes, were %d", len(after), len(tampered))
				}
			})
		}
	}
}

// TestFollowerRefusesForgedRecords: the same records reaching a follower in
// a batch are ErrDiverged at their seq, and the follower's journal and head
// do not move; the batch as its primary wrote it is taken afterwards.
func TestFollowerRefusesForgedRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		edit func(t *testing.T) func([]byte) []byte
	}{{"digest", forgeDigest}, {"fired", forgeFired}} {
		t.Run(c.name, func(t *testing.T) {
			primary, journal := raisedRepo(t)
			f, err := InitAt(t.TempDir()+"/follower", storage.Snapshot{Base: mustAt(t, primary, 0)})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			stream := records(primary.Log())
			forged, err := ReadEntries(bytes.NewReader(forge(t, stream, 2, c.edit(t))))
			if err != nil {
				t.Fatal(err)
			}
			fpath := filepath.Join(f.Dir(), journalFile)
			before, _ := os.ReadFile(fpath)
			head, seq := f.Snapshot()
			err = f.ApplyReplicaBatch(forged)
			if !errors.Is(err, ErrDiverged) || !strings.Contains(err.Error(), "entry 2:") {
				t.Fatalf("ApplyReplicaBatch = %v, want ErrDiverged naming entry 2", err)
			}
			if after, _ := os.ReadFile(fpath); !bytes.Equal(after, before) {
				t.Errorf("the refused batch moved the follower's journal from %d to %d bytes", len(before), len(after))
			}
			if h, s := f.Snapshot(); h != head || s != seq || f.Digest() != storage.BaseDigest(head) {
				t.Errorf("the refused batch moved the follower's head to seq %d", s)
			}
			good, err := ReadEntries(bytes.NewReader(stream))
			if err != nil {
				t.Fatal(err)
			}
			if err := f.ApplyReplicaBatch(good); err != nil {
				t.Fatalf("the primary's own batch: %v", err)
			}
			fj, _ := os.ReadFile(fpath)
			if !bytes.Equal(fj[len(before):], journal[len(journal)-len(stream):]) || f.Digest() != primary.Digest() {
				t.Errorf("the follower's records or digest differ from its primary's")
			}
		})
	}
}

func mustAt(t *testing.T, r *Repository, n int) *objectbase.Base {
	t.Helper()
	b, err := r.At(n)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestOpenRefusesDiffRecords: a journal written by a version that journaled
// diffs — a record holding "added" or "removed" in the parent's format — is
// refused with the migration (compact it with the binary that wrote it), and
// the directory is left as it was. A checkpoint of another evaluator
// semantics is refused the same way when records follow it.
func TestOpenRefusesDiffRecords(t *testing.T) {
	r, journal := raisedRepo(t)
	r.Close()
	path := filepath.Join(r.Dir(), journalFile)
	for name, edit := range map[string]func([]byte) []byte{
		"added and removed": func(p []byte) []byte {
			return bytes.Replace(p, []byte(`,"fired"`), []byte(`,"added":"e2.sal=201","removed":"e2.sal=200","fired"`), 1)
		},
		"removed alone": func(p []byte) []byte {
			return bytes.Replace(p, []byte(`,"fired"`), []byte(`,"removed":"e2.sal=200","fired"`), 1)
		},
	} {
		t.Run(name, func(t *testing.T) {
			tampered := forge(t, journal, 2, edit)
			if err := os.WriteFile(path, tampered, 0o644); err != nil {
				t.Fatal(err)
			}
			before := readDir(t, r.Dir())
			_, err := Open(r.Dir())
			if err == nil || !strings.Contains(err.Error(), "verlog repo compact") || !strings.Contains(err.Error(), "journaled diffs") {
				t.Fatalf("Open = %v, want the migration", err)
			}
			if after := readDir(t, r.Dir()); !maps.Equal(after, before) {
				t.Errorf("Open changed the directory it refused")
			}
		})
	}
	t.Run("semantics", func(t *testing.T) {
		first, rest, _ := bytes.Cut(journal, []byte("\n"))
		payload, err := storage.ParseJournalLine(first, 1)
		stamp := fmt.Appendf(nil, `"semantics":%d,`, eval.Semantics)
		if err != nil || !bytes.Contains(payload, stamp) {
			t.Fatalf("the checkpoint header %s (%v) names no semantics", payload, err)
		}
		payload = bytes.Replace(bytes.Clone(payload), stamp, fmt.Appendf(nil, `"semantics":%d,`, eval.Semantics+1), 1)
		other := append(storage.FrameJournalRecord(payload), rest...)
		if err := os.WriteFile(path, other, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(r.Dir()); err == nil || !strings.Contains(err.Error(), "semantics") || !strings.Contains(err.Error(), "verlog repo compact") {
			t.Fatalf("Open = %v, want a refusal naming the semantics and the migration", err)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, other) {
			t.Errorf("Open changed the journal it refused")
		}
	})
}

// TestOpenStampsACheckpointWithoutRecords: a checkpoint written without a
// semantics and a digest, as the previous version wrote them (and as
// `verlog repo compact` with it leaves a journal), opens; the digest is
// computed at load, and the checkpoint is written again under this
// version's semantics, so the records appended after it open.
func TestOpenStampsACheckpointWithoutRecords(t *testing.T) {
	base := workload.EnterpriseSpec{Employees: 20, Seed: 3}.ObjectBase()
	dir := t.TempDir()
	var hdr struct {
		Snapshot, Seq, Facts int
	}
	old := storage.Snapshot{Base: base, Seq: 4}.Append(nil)
	first, rest, _ := bytes.Cut(old, []byte("\n"))
	payload, err := storage.ParseJournalLine(first, 1)
	if err != nil || json.Unmarshal(payload, &hdr) != nil {
		t.Fatal(err)
	}
	parent := append(storage.FrameJournalRecord(fmt.Appendf(nil, `{"snapshot":%d,"seq":%d,"facts":%d}`, hdr.Snapshot, hdr.Seq, hdr.Facts)), rest...)
	if err := os.WriteFile(filepath.Join(dir, journalFile), parent, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open of a checkpoint without records: %v", err)
	}
	if r.Digest() != storage.BaseDigest(base) || r.SnapshotSeq() != 4 {
		t.Fatalf("digest %s at seq %d, want %s at 4", r.Digest(), r.SnapshotSeq(), storage.BaseDigest(base))
	}
	if _, err := r.Apply(prog(t, "mod[e1].sal -> (S, S') <- e1.sal -> S, S' = S + 1.")); err != nil {
		t.Fatal(err)
	}
	head, _ := r.Head()
	r.Close()
	r2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after an apply: %v", err)
	}
	defer r2.Close()
	if got, _ := r2.Head(); !got.Equal(head) || r2.Digest() != storage.BaseDigest(head) {
		t.Errorf("the reopened head or its digest differs")
	}
}

// TestDigestFollowsEveryHead: the digest a repository keeps is a fresh hash
// of its head's facts after every way of installing a head — Open, Compact
// in full and with a retention tail, ResetToSnapshot, InitAt and
// ApplyReplicaBatch — and /v1/status's digest of a follower is its
// primary's at the same seq. Verify and Compact check the chain of record
// digests against it, and refuse a record forged after the repository read
// it.
func TestDigestFollowsEveryHead(t *testing.T) {
	check := func(what string, r *Repository) {
		t.Helper()
		head, _ := r.Head()
		if r.Digest() != storage.BaseDigest(head) {
			t.Errorf("after %s the digest is %s, a fresh hash of the head %s", what, r.Digest(), storage.BaseDigest(head))
		}
		if err := r.Verify(); err != nil {
			t.Errorf("after %s: Verify: %v", what, err)
		}
	}
	r, _ := raisedRepo(t)
	check("three applies", r)
	if err := r.SetConstraints(`nonneg: E.sal -> S, S < 0.`); err != nil {
		t.Fatal(err)
	}
	applyRaises(t, r, 2)
	r.Close()
	r, err := Open(r.Dir())
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check("Open", r)

	f, err := InitAt(t.TempDir()+"/follower", storage.Snapshot{Base: mustAt(t, r, 0)})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	check("InitAt", f)
	if err := f.ApplyReplicaBatch(r.Log()); err != nil {
		t.Fatal(err)
	}
	check("ApplyReplicaBatch", f)
	if f.Digest() != r.Digest() {
		t.Errorf("the follower's digest %s is not its primary's %s", f.Digest(), r.Digest())
	}

	r.SetRetention(func() int { return 3 })
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	check("Compact with a retention tail", r)
	r.SetRetention(nil)
	if err := r.Compact(); err != nil {
		t.Fatal(err)
	}
	check("a full Compact", r)
	applyRaises(t, r, 1)
	if err := f.ResetToSnapshot(r.Export()); err != nil {
		t.Fatal(err)
	}
	check("ResetToSnapshot", f)
	if f.Digest() != r.Digest() {
		t.Errorf("the reset follower's digest %s is not its primary's %s", f.Digest(), r.Digest())
	}

	// A record forged on disk after the repository read it: Verify re-derives
	// every record and Compact compares them with the resident ones.
	applyRaises(t, r, 1)
	path := filepath.Join(r.Dir(), journalFile)
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, forge(t, journal, r.SnapshotSeq()+2, forgeDigest(t)), 0o644); err != nil {
		t.Fatal(err)
	}
	var ve *VerifyError
	if err := r.Verify(); !errors.As(err, &ve) || !errors.Is(err, ErrDiverged) {
		t.Errorf("Verify of a forged digest = %v, want a VerifyError of a diverged record", err)
	}
	if err := r.Compact(); !errors.As(err, &ve) {
		t.Errorf("Compact of a forged digest = %v, want a VerifyError", err)
	}
	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}

	// A head that went wrong in memory, its journal and digests intact: the
	// checkpoint Compact would write from it does not hash to its digest.
	hs := r.published.Load()
	good := hs.base
	hs.base = mustAt(t, r, 0)
	if err := r.Compact(); !errors.As(err, &ve) || !strings.Contains(err.Error(), "hashes to") {
		t.Errorf("Compact of a head whose base is not its digest's = %v, want a VerifyError", err)
	}
	hs.base = good
	if err := r.Compact(); err != nil {
		t.Errorf("Compact of the repository put right: %v", err)
	}
	check("the last Compact", r)
}
