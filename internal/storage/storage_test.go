package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

func sampleBase(t *testing.T) *objectbase.Base {
	t.Helper()
	b, err := parser.ObjectBase(`
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 275.5.
bob.note -> "hello world".
mod(phil).sal -> 4600.
bob.rating@2026, "q1" -> 7.
`, "sample.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return b
}

func TestTextRoundTrip(t *testing.T) {
	b := sampleBase(t)
	var buf bytes.Buffer
	if err := SaveText(&buf, b); err != nil {
		t.Fatalf("SaveText: %v", err)
	}
	got, err := parser.ObjectBase(buf.String(), "roundtrip")
	if err != nil {
		t.Fatalf("parser.ObjectBase: %v", err)
	}
	// Text format drops derivable exists facts; compare the rest. The
	// version fact mod(phil) does not re-seed an exists for its own VID,
	// so compare fact-by-fact ignoring exists.
	for _, f := range b.Facts() {
		if f.IsExists() {
			continue
		}
		if !got.Has(f) {
			t.Errorf("missing after text round trip: %s", f)
		}
	}
}

func saveSnapshot(t *testing.T, b *objectbase.Base, seq int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := SaveBinaryAt(&buf, b, seq); err != nil {
		t.Fatalf("SaveBinaryAt: %v", err)
	}
	return buf.Bytes()
}

func TestBinaryRoundTrip(t *testing.T) {
	b := sampleBase(t)
	snap := saveSnapshot(t, b, 7)
	header := fmt.Sprintf(`{"snapshot":2,"seq":7,"facts":%d,"digest":"%s"}`, len(b.Facts()), BaseDigest(b))
	if first, _, _ := bytes.Cut(snap, []byte("\n")); !bytes.HasSuffix(first, []byte(" "+header)) {
		t.Errorf("first record %q, want the header %s", first, header)
	}
	got, seq, err := LoadBinaryAt(bytes.NewReader(snap))
	if err != nil {
		t.Fatalf("LoadBinaryAt: %v", err)
	}
	if seq != 7 || !got.Equal(b) {
		t.Errorf("binary round trip differs (seq %d):\nwant:\n%s\ngot:\n%s",
			seq, parser.FormatFacts(b, true), parser.FormatFacts(got, true))
	}
}

// TestSnapshotCarriesConstraints: the constraint set and the replication
// epoch ride in the header, which leaves each field out when there is no
// set and when the epoch is 1, as the snapshots of earlier versions were
// written.
func TestSnapshotCarriesConstraints(t *testing.T) {
	b := sampleBase(t)
	want := Snapshot{Base: b, Seq: 3, Epoch: 4, Constraints: "cap: E.sal -> S, S > 5000.\n% \"q\" \\ <&> π\n"}
	var buf bytes.Buffer
	if err := want.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSnapshot(&buf)
	if err != nil || got.Seq != want.Seq || got.Epoch != want.Epoch || got.Constraints != want.Constraints || !got.Base.Equal(b) {
		t.Fatalf("LoadSnapshot = seq %d, epoch %d, constraints %q, %v; want seq 3, epoch 4, %q and the base", got.Seq, got.Epoch, got.Constraints, err, want.Constraints)
	}
	snap := saveSnapshot(t, b, 3)
	if bytes.Contains(snap, []byte("constraints")) || bytes.Contains(snap, []byte("epoch")) {
		t.Errorf("a snapshot without constraints, of epoch 1, names the fields: %.80q", snap)
	}
	if one := (Snapshot{Base: b, Seq: 3, Epoch: 1}).Append(nil); !bytes.Equal(one, snap) {
		t.Errorf("a snapshot of epoch 1 is not the snapshot without one: %.80q", one)
	}
}

// TestBinaryRejectsGarbage: files of other formats are refused, and so is
// a snapshot missing, repeating or adding a record, or one whose header
// miscounts. The snapshot spliced is a large base's, written as several
// Facts records of about snapshotChunk bytes.
func TestBinaryRejectsGarbage(t *testing.T) {
	b := workload.EnterpriseSpec{Employees: 3000, Seed: 1}.ObjectBase()
	snap := saveSnapshot(t, b, 3)
	recs := bytes.SplitAfter(snap, []byte("\n"))
	recs = recs[:len(recs)-1] // the empty remainder after the last newline
	if len(recs) < 4 {
		t.Fatalf("a %d-byte snapshot in %d records, want several", len(snap), len(recs))
	}
	for i, rec := range recs[1:] {
		if len(rec) > journalHeaderLen+snapshotChunk+64 {
			t.Errorf("facts record %d holds %d bytes, want about %d", i+1, len(rec), snapshotChunk)
		}
	}
	got, seq, err := LoadBinaryAt(bytes.NewReader(snap))
	if err != nil || seq != 3 || !got.Equal(b) {
		t.Fatalf("round trip: seq %d, equal %v, %v", seq, err == nil && got.Equal(b), err)
	}

	join := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	rest := join(recs[1:]...)
	miscounted := FrameJournalRecord(fmt.Appendf(nil, `{"snapshot":2,"seq":3,"facts":%d}`, len(b.Facts())+1))
	gob, err := os.ReadFile(filepath.Join("testdata", "gob-snapshot.bin"))
	if err != nil {
		t.Fatal(err)
	}
	journal := FrameJournalRecord([]byte(`{"seq":1,"program":"p.","added":"a.m=1","fired":1,"strata":1}`))
	for name, data := range map[string][]byte{
		"empty":               nil,
		"garbage":             []byte("not a snapshot"),
		"gob snapshot":        gob,
		"journal":             journal,
		"no header":           rest,
		"header only":         recs[0],
		"record missing":      join(recs[0], recs[1], join(recs[3:]...)),
		"record repeated":     join(snap, recs[len(recs)-1]),
		"header repeated":     join(recs[0], recs[0], rest),
		"header miscounts":    join(miscounted, rest),
		"empty facts record":  join(snap, FrameJournalRecord(nil)),
		"version 1 header":    join(FrameJournalRecord([]byte(`{"snapshot":1,"seq":3}`)), rest),
		"negative count":      FrameJournalRecord([]byte(`{"snapshot":2,"seq":0,"facts":-1}`)),
		"journal after facts": join(snap, journal),
	} {
		if _, _, err := LoadBinaryAt(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "not an intact snapshot") {
			t.Errorf("%s: LoadBinaryAt = %v, want a refusal naming the format", name, err)
		}
	}
}

// TestSnapshotDamageRefused: every single-bit flip of a snapshot, and every
// cut of it, at a record boundary or inside a record, is refused, never
// read as a different base.
func TestSnapshotDamageRefused(t *testing.T) {
	snap := saveSnapshot(t, workload.EnterpriseSpec{Employees: 20, Seed: 1}.ObjectBase(), 5)
	refused := func(what string, data []byte) {
		t.Helper()
		if _, _, err := LoadBinaryAt(bytes.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", what)
		}
	}
	damaged := make([]byte, len(snap))
	for i := range snap {
		for bit := 0; bit < 8; bit++ {
			copy(damaged, snap)
			damaged[i] ^= 1 << bit
			refused(fmt.Sprintf("bit %d of byte %d flipped", bit, i), damaged)
		}
		refused(fmt.Sprintf("cut at byte %d", i), snap[:i])
	}
}

func TestDiffRecordsRoundTrip(t *testing.T) {
	from := sampleBase(t)
	to := from.Clone()
	to.Insert(term.NewFact(term.GV(term.Sym("new")), "a", term.Int(1)))
	to.Remove(term.NewFact(term.GV(term.Sym("phil")), "sal", term.Int(4000)))
	d := objectbase.Compute(from, to)
	added, removed := EncodeDiff(d)
	var back objectbase.Diff
	var err error
	if back.Added, err = added.Decode(); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if back.Removed, err = removed.Decode(); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	redo := from.Clone()
	back.Apply(redo)
	if !redo.Equal(to) {
		t.Errorf("diff replay differs")
	}
}
