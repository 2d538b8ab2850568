// Package storage persists object bases and update journals in two
// formats:
//
//   - Text: the canonical concrete syntax (one fact per line), readable
//     and diffable; exists facts are derivable and omitted.
//   - Framed: checksummed lines (see journal.go), one record each. A
//     journal is one JSON record per applied program, carrying the program
//     and the Digest of the state it leads to (package repository). A
//     snapshot is a JSON header record followed by the base's facts as
//     Facts records.
package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"

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
//	{"snapshot":2,"seq":N,"epoch":E,"facts":K,"constraints":"...","semantics":V,"digest":"..."}
//
// where N is the journal sequence number the snapshot represents (0 for the
// state before any program: entries with Seq at most N are folded into it),
// E the replication epoch in force at N (absent when it is 1), K the number
// of facts, constraints the source of the integrity
// constraints in force at N (absent when there are none), V the evaluator
// semantics the records after it were written under (eval.Semantics) and
// digest the base's Digest; then the base's facts, exists facts included so
// that even fully-deleted versions survive, in sorted order as Facts records
// of about snapshotChunk bytes each. Snapshots of earlier versions have no
// semantics and no digest: the digest is computed when they are read.
//
// A log is a snapshot, its checkpoint, followed by journal records: the
// entries applied since N. A repository's journal file is one.
const (
	snapshotVersion = 2 // the gob snapshots of earlier versions were 1
	snapshotChunk   = 64 << 10
)

type snapshotHeader struct {
	Snapshot    int     `json:"snapshot"`
	Seq         int     `json:"seq"`
	Epoch       uint64  `json:"epoch,omitempty"`
	Facts       int     `json:"facts"`
	Constraints string  `json:"constraints,omitempty"`
	Semantics   int     `json:"semantics,omitempty"`
	Digest      *Digest `json:"digest,omitempty"`
}

// Snapshot is what a snapshot holds: a base, the journal sequence number it
// represents, the replication epoch and the source of the constraint set in
// force there, the evaluator semantics its journal's records were written
// under and the base's digest.
type Snapshot struct {
	Base *objectbase.Base
	Seq  int
	// Epoch is the epoch in force at Seq, 0 standing for 1: a header holds
	// it only when it is past 1, and ReadLog returns 0 for one without it.
	Epoch       uint64
	Constraints string
	Semantics   int
	// Digest is the digest of Base. ReadLog sets it; Append computes it
	// when it is zero, which is then the digest of Base or of no facts.
	Digest Digest
}

// Append appends the snapshot's framed records to dst.
func (s Snapshot) Append(dst []byte) []byte {
	facts := s.Base.Facts()
	if s.Digest == (Digest{}) {
		s.Digest = digestOf(slices.Values(facts))
	}
	if s.Epoch == 1 {
		s.Epoch = 0
	}
	hdr, _ := json.Marshal(snapshotHeader{snapshotVersion, s.Seq, s.Epoch, len(facts), s.Constraints, s.Semantics, &s.Digest}) // cannot fail
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
// nil entry: a snapshot alone, which no record may follow. The digest of
// the facts records, hashed as they stream, must be the header's, when it
// has one.
func ReadLog(r io.Reader, entry func(payload []byte) error) (Snapshot, error) {
	var hdr snapshotHeader
	var facts []term.Fact
	var digest Digest
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
			digest = digest.Add(FactsDigest(payload))
			if err == nil && len(facts) == hdr.Facts && hdr.Digest != nil && *hdr.Digest != digest {
				err = fmt.Errorf("the facts hash to digest %s, the header says %s", digest, *hdr.Digest)
			}
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
	case hdr.Facts == 0 && hdr.Digest != nil && *hdr.Digest != digest && err == nil:
		err = fmt.Errorf("no facts, the header says digest %s", *hdr.Digest)
	}
	if hdr.Snapshot == 0 || len(facts) != hdr.Facts || (err != nil && entry == nil) {
		var torn *TornTailError
		if errors.As(err, &torn) {
			err = &CorruptRecordError{Line: torn.Line, Reason: torn.Reason}
		}
		return Snapshot{}, fmt.Errorf("storage: not an intact snapshot (want a framed header record, then framed Facts records): %w", err)
	}
	return Snapshot{objectbase.FromFacts(facts), hdr.Seq, hdr.Epoch, hdr.Constraints, hdr.Semantics, digest}, err
}

// SkipCheckpoint reads the checkpoint that heads a log held in memory
// without decoding it: it checks the frame of each of its records, hashes
// the facts records as they stand (FactsDigest) and returns the
// checkpoint's seq, the digest of its facts, which must be the one its
// header holds when it holds one, and the records that follow it.
func SkipCheckpoint(log []byte) (seq int, digest Digest, rest []byte, err error) {
	var hdr snapshotHeader
	facts := 0
	for line := 1; hdr.Snapshot == 0 || facts < hdr.Facts; line++ {
		end := bytes.IndexByte(log, '\n')
		if end < 0 {
			return 0, Digest{}, nil, fmt.Errorf("storage: the checkpoint is cut short at line %d", line)
		}
		payload, err := ParseJournalLine(log[:end], line)
		if err != nil {
			return 0, Digest{}, nil, err
		}
		log = log[end+1:]
		if hdr.Snapshot == 0 {
			if json.Unmarshal(payload, &hdr) != nil || hdr.Snapshot != snapshotVersion || hdr.Seq < 0 || hdr.Facts < 0 {
				return 0, Digest{}, nil, fmt.Errorf("storage: no snapshot header: %.40q", payload)
			}
			continue
		}
		facts += 1 + bytes.Count(payload, []byte{';'}) + bytes.Count(payload, []byte{'/'})
		digest = digest.Add(FactsDigest(payload))
	}
	switch {
	case facts != hdr.Facts:
		return 0, Digest{}, nil, fmt.Errorf("storage: the checkpoint holds %d facts, its header says %d", facts, hdr.Facts)
	case hdr.Digest != nil && *hdr.Digest != digest:
		return 0, Digest{}, nil, fmt.Errorf("storage: the checkpoint's facts hash to digest %s, its header says %s", digest, *hdr.Digest)
	}
	return hdr.Seq, digest, log, nil
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
