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

// LoadText reads a base in text format; name labels parse errors.
func LoadText(r io.Reader, name string) (*objectbase.Base, error) {
	src, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("storage: read %s: %w", name, err)
	}
	return parser.ObjectBase(string(src), name)
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

// Save writes the snapshot.
func (s Snapshot) Save(w io.Writer) error {
	facts := s.Base.Facts()
	hdr, _ := json.Marshal(snapshotHeader{snapshotVersion, s.Seq, len(facts), s.Constraints}) // cannot fail
	out := FrameJournalRecord(hdr)
	var enc factEncoder
	for len(facts) > 0 {
		for enc.buf = enc.buf[:0]; len(facts) > 0 && len(enc.buf) < snapshotChunk; facts = facts[1:] {
			enc.add(facts[0])
		}
		out = AppendJournalRecord(out, func(dst []byte) []byte { return append(dst, enc.buf...) })
	}
	if _, err := w.Write(out); err != nil {
		return fmt.Errorf("storage: write snapshot: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot. Anything but a complete, intact snapshot
// is an error.
func LoadSnapshot(r io.Reader) (Snapshot, error) {
	var hdr snapshotHeader
	var facts []term.Fact
	_, _, err := ReadJournal(r, func(payload []byte) error {
		if hdr.Snapshot == 0 {
			if json.Unmarshal(payload, &hdr) != nil || hdr.Snapshot != snapshotVersion || hdr.Seq < 0 || hdr.Facts < 0 {
				return fmt.Errorf("no snapshot header: %.40q", payload)
			}
			facts = make([]term.Fact, 0, min(hdr.Facts, 1<<20))
			return nil
		}
		chunk, err := Facts(payload).Decode()
		if err == nil && len(chunk) == 0 {
			err = errors.New("empty facts record")
		}
		facts = append(facts, chunk...)
		return err
	})
	switch {
	case err != nil:
	case hdr.Snapshot == 0:
		err = errors.New("no header record")
	case len(facts) != hdr.Facts:
		err = fmt.Errorf("%d facts, the header says %d", len(facts), hdr.Facts)
	}
	if err != nil {
		return Snapshot{}, fmt.Errorf("storage: not an intact snapshot (want a framed header record, then framed Facts records): %w", err)
	}
	return Snapshot{objectbase.FromFacts(facts), hdr.Seq, hdr.Constraints}, nil
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
