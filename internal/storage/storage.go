// Package storage persists object bases and update journals in two
// formats:
//
//   - Text: the canonical concrete syntax (one fact per line), readable
//     and diffable; exists facts are derivable and omitted.
//   - Framed: checksummed lines (see journal.go), one record each. A
//     journal is one JSON record per applied program, carrying its
//     fact-level diff as compact fact lists (Facts); it enables replay and
//     time travel (package repository). A snapshot is a JSON header record
//     followed by the base's facts as Facts records.
package storage

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// SaveText writes the base in canonical text format.
func SaveText(w io.Writer, b *objectbase.Base) error {
	_, err := io.WriteString(w, parser.FormatFacts(b, false))
	return err
}

// A snapshot is framed records: first the header
//
//	{"snapshot":2,"seq":N,"facts":K,"constraints":"..."}
//
// where N is the journal sequence number the snapshot represents (0 for the
// state before any program: entries with Seq at most N are folded into it),
// K the number of facts and constraints the source of the integrity
// constraints in force at N (absent when there are none); then the base's
// facts, exists facts included so that even fully-deleted versions survive,
// in sorted order as Facts records of about snapshotChunk bytes each.
//
// A log is a snapshot, its checkpoint, followed by journal records: the
// entries applied since N. A repository's journal file is one.
const (
	snapshotVersion = 2 // the gob snapshots of earlier versions were 1
	snapshotChunk   = 64 << 10
)

type snapshotHeader struct {
	Snapshot    int    `json:"snapshot"`
	Seq         int    `json:"seq"`
	Facts       int    `json:"facts"`
	Constraints string `json:"constraints,omitempty"`
}

// Snapshot is what a snapshot holds: a base, the journal sequence number it
// represents and the source of the constraint set in force there.
type Snapshot struct {
	Base        *objectbase.Base
	Seq         int
	Constraints string
}

// Append appends the snapshot's framed records to dst.
func (s Snapshot) Append(dst []byte) []byte {
	facts := s.Base.Facts()
	hdr, _ := json.Marshal(snapshotHeader{snapshotVersion, s.Seq, len(facts), s.Constraints}) // cannot fail
	dst = AppendJournalRecord(dst, func(b []byte) []byte { return append(b, hdr...) })
	var enc factEncoder
	for len(facts) > 0 {
		for enc.buf = enc.buf[:0]; len(facts) > 0 && len(enc.buf) < snapshotChunk; facts = facts[1:] {
			enc.add(facts[0])
		}
		dst = AppendJournalRecord(dst, func(b []byte) []byte { return append(b, enc.buf...) })
	}
	return dst
}

// Save writes the snapshot.
func (s Snapshot) Save(w io.Writer) error {
	if _, err := w.Write(s.Append(nil)); err != nil {
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	return nil
}

// ReadLog reads a log: it returns its checkpoint and hands the payload of
// every journal record after it to entry, which vets and consumes it. A
// checkpoint that is not intact, cut short included, is an error that is no
// *TornTailError: a checkpoint is written whole, so truncation cannot repair
// it. The records after it are read as ReadJournal reads them, and the
// checkpoint is returned with their error. LoadSnapshot is ReadLog with a
// nil entry: a snapshot alone, which no record may follow.
func ReadLog(r io.Reader, entry func(payload []byte) error) (Snapshot, error) {
	var hdr snapshotHeader
	var facts []term.Fact
	_, _, err := ReadJournal(r, func(payload []byte) error {
		switch {
		case hdr.Snapshot == 0:
			if json.Unmarshal(payload, &hdr) != nil || hdr.Snapshot != snapshotVersion || hdr.Seq < 0 || hdr.Facts < 0 {
				hdr.Snapshot = 0 // refused: no header was read
				return fmt.Errorf("no snapshot header: %.40q", payload)
			}
			facts = make([]term.Fact, 0, min(hdr.Facts, 1<<20))
			return nil
		case len(facts) < hdr.Facts:
			chunk, err := Facts(payload).Decode()
			if err == nil && len(chunk) == 0 {
				err = errors.New("empty facts record")
			}
			facts = append(facts, chunk...)
			return err
		case entry == nil:
			return errors.New("a record after the snapshot's facts")
		}
		return entry(payload)
	})
	switch {
	case hdr.Snapshot == 0 && err == nil:
		err = errors.New("no header record")
	case len(facts) != hdr.Facts && err == nil:
		err = fmt.Errorf("%d facts, the header says %d", len(facts), hdr.Facts)
	}
	if hdr.Snapshot == 0 || len(facts) != hdr.Facts || (err != nil && entry == nil) {
		var torn *TornTailError
		if errors.As(err, &torn) {
			err = &CorruptRecordError{Line: torn.Line, Reason: torn.Reason}
		}
		return Snapshot{}, fmt.Errorf("storage: not an intact snapshot (want a framed header record, then framed Facts records): %w", err)
	}
	return Snapshot{objectbase.FromFacts(facts), hdr.Seq, hdr.Constraints}, err
}

// LoadSnapshot reads a snapshot. Anything but a complete, intact snapshot
// is an error.
func LoadSnapshot(r io.Reader) (Snapshot, error) {
	return ReadLog(r, nil)
}

// SaveBinaryAt and LoadBinaryAt are Save and LoadSnapshot without a
// constraint set, kept for the load benchmark, which calls them.
func SaveBinaryAt(w io.Writer, b *objectbase.Base, seq int) error {
	return Snapshot{Base: b, Seq: seq}.Save(w)
}

func LoadBinaryAt(r io.Reader) (*objectbase.Base, int, error) {
	s, err := LoadSnapshot(r)
	return s.Base, s.Seq, err
}
