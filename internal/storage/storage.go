// Package storage persists object bases and update journals.
//
// Three formats are provided:
//
//   - Text: the canonical concrete syntax (one fact per line), readable
//     and diffable; exists facts are derivable and omitted.
//   - Binary: a gob-encoded snapshot with a format header, for large
//     bases; exists facts of plain objects are omitted and re-seeded.
//   - Journal: a log of checksummed JSON lines, one per applied program,
//     carrying its fact-level diff as compact encoded fact lists (Facts),
//     enabling replay and time travel (package repository).
package storage

import (
	"bufio"
	"encoding/gob"
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

// OIDRecord is a portable encoding of an OID: the form the gob snapshot
// and journal records written before the compact fact encoding (Facts) use.
type OIDRecord struct {
	Sort     uint8
	Sym      string
	Num, Den int64
}

// EncodeOID converts an OID to its portable record.
func EncodeOID(o term.OID) OIDRecord {
	switch o.Sort() {
	case term.SortNum:
		r := o.Rat()
		return OIDRecord{Sort: uint8(term.SortNum), Num: r.Num(), Den: r.Den()}
	case term.SortStr:
		return OIDRecord{Sort: uint8(term.SortStr), Sym: o.Name()}
	default:
		return OIDRecord{Sort: uint8(term.SortSym), Sym: o.Name()}
	}
}

// DecodeOID converts a record back to an OID.
func DecodeOID(r OIDRecord) (term.OID, error) {
	switch term.Sort(r.Sort) {
	case term.SortNum:
		if r.Den == 0 {
			return term.OID{}, errors.New("storage: corrupted numeric OID with zero denominator")
		}
		return term.Num(r.Num, r.Den), nil
	case term.SortStr:
		return term.Str(r.Sym), nil
	case term.SortSym:
		return term.Sym(r.Sym), nil
	default:
		return term.OID{}, fmt.Errorf("storage: unknown OID sort %d", r.Sort)
	}
}

// FactRecord is a portable encoding of a fact.
type FactRecord struct {
	Object OIDRecord
	Path   string
	Method string
	Args   []OIDRecord
	Result OIDRecord
}

// EncodeFact converts a fact to its portable record.
func EncodeFact(f term.Fact) FactRecord {
	args := f.Args.Decode()
	rec := FactRecord{
		Object: EncodeOID(f.V.Object),
		Path:   string(f.V.Path),
		Method: f.Method,
		Result: EncodeOID(f.Result),
	}
	for _, a := range args {
		rec.Args = append(rec.Args, EncodeOID(a))
	}
	return rec
}

// DecodeFact converts a record back to a fact.
func DecodeFact(rec FactRecord) (term.Fact, error) {
	obj, err := DecodeOID(rec.Object)
	if err != nil {
		return term.Fact{}, err
	}
	res, err := DecodeOID(rec.Result)
	if err != nil {
		return term.Fact{}, err
	}
	for _, k := range rec.Path {
		if !term.UpdateKind(k).Valid() {
			return term.Fact{}, fmt.Errorf("storage: corrupted version path %q", rec.Path)
		}
	}
	var args []term.OID
	for _, a := range rec.Args {
		o, err := DecodeOID(a)
		if err != nil {
			return term.Fact{}, err
		}
		args = append(args, o)
	}
	return term.Fact{
		V:      term.GVID{Object: obj, Path: term.Path(rec.Path)},
		Method: rec.Method,
		Args:   term.EncodeOIDs(args),
		Result: res,
	}, nil
}

// snapshot is the gob payload of a binary snapshot. Seq records which
// journal sequence number the snapshot represents (0 for the state before
// any program): journal entries with Seq at most this value are already
// folded into the snapshot. Snapshots written before the field existed
// decode as Seq 0, which is exactly what they mean.
type snapshot struct {
	Magic   string
	Version int
	Seq     int
	Facts   []FactRecord
}

const (
	snapshotMagic   = "verlog-snapshot"
	snapshotVersion = 1
)

// SaveBinary writes a gob snapshot of the base, including exists facts so
// that even fully-deleted versions survive the round trip.
func SaveBinary(w io.Writer, b *objectbase.Base) error { return SaveBinaryAt(w, b, 0) }

// SaveBinaryAt writes a snapshot stamped with the journal sequence number
// it represents (see the snapshot type).
func SaveBinaryAt(w io.Writer, b *objectbase.Base, seq int) error {
	snap := snapshot{Magic: snapshotMagic, Version: snapshotVersion, Seq: seq}
	for _, f := range b.Facts() {
		snap.Facts = append(snap.Facts, EncodeFact(f))
	}
	bw := bufio.NewWriter(w)
	if err := gob.NewEncoder(bw).Encode(snap); err != nil {
		return fmt.Errorf("storage: encode snapshot: %w", err)
	}
	return bw.Flush()
}

// LoadBinary reads a gob snapshot.
func LoadBinary(r io.Reader) (*objectbase.Base, error) {
	b, _, err := LoadBinaryAt(r)
	return b, err
}

// LoadBinaryAt reads a gob snapshot together with its journal sequence
// stamp (0 for snapshots written before the stamp existed).
func LoadBinaryAt(r io.Reader) (*objectbase.Base, int, error) {
	var snap snapshot
	if err := gob.NewDecoder(bufio.NewReader(r)).Decode(&snap); err != nil {
		return nil, 0, fmt.Errorf("storage: decode snapshot: %w", err)
	}
	if snap.Magic != snapshotMagic {
		return nil, 0, fmt.Errorf("storage: not a verlog snapshot (magic %q)", snap.Magic)
	}
	if snap.Version != snapshotVersion {
		return nil, 0, fmt.Errorf("storage: unsupported snapshot version %d", snap.Version)
	}
	facts := make([]term.Fact, 0, len(snap.Facts))
	for _, rec := range snap.Facts {
		f, err := DecodeFact(rec)
		if err != nil {
			return nil, 0, err
		}
		facts = append(facts, f)
	}
	return objectbase.FromFacts(facts), snap.Seq, nil
}
