package repository

import (
	"fmt"
	"strconv"

	"verlog/internal/objectbase"
	"verlog/internal/storage"
)

// Entry is one journal record: an applied program and its effect, or the
// installation of a constraint set, which has no program and no diff.
type Entry struct {
	// Seq numbers applied programs from 1 and keeps counting across
	// compactions (the snapshot records which seq it represents).
	Seq int `json:"seq"`
	// Program is the canonical text of the applied program.
	Program string `json:"program"`
	// Key is the idempotency key the update was committed under, if any.
	Key string `json:"key,omitempty"`
	// Constraints is the source of the constraint set a constraints record
	// installs (empty clears the set); nil in an apply's record.
	Constraints *string `json:"constraints,omitempty"`
	// Added and Removed are the fact-level diff on the updated base, in the
	// compact encoding they are journaled in. They stay encoded in memory
	// and on the replication wire; replay decodes them.
	Added   storage.Facts `json:"added,omitempty"`
	Removed storage.Facts `json:"removed,omitempty"`
	// Fired is the number of ground updates the evaluation fired.
	Fired int `json:"fired"`
	// Strata is the number of strata of the program.
	Strata int `json:"strata"`
}

// AppendRecord appends the entry's framed journal record to dst: the bytes
// a commit fsyncs, a primary streams and a follower fsyncs in turn. They
// are a function of the entry alone, so the journals of a primary and its
// followers are byte-identical. The payload is the entry as encoding/json
// would write it with HTML escaping off.
func (e Entry) AppendRecord(dst []byte) []byte {
	rec, _, _ := e.appendRecord(dst,
		func(b []byte) []byte { return append(b, e.Added...) },
		func(b []byte) []byte { return append(b, e.Removed...) })
	return rec
}

// appendCommit appends the record of an apply whose evaluation changed the
// versions changes lists to dst, and sets e's Added and Removed: the diff is
// rendered once, from the changed states straight into the record, and both
// lists are substrings of one copy of it. changes is sorted by version in
// place.
func (e *Entry) appendCommit(dst []byte, changes []objectbase.Change) []byte {
	rec, added, removed := e.appendRecord(dst,
		func(b []byte) []byte { return storage.AppendAdded(b, changes) },
		func(b []byte) []byte { return storage.AppendRemoved(b, changes) })
	switch {
	case added.empty() && removed.empty():
		e.Added, e.Removed = "", ""
	case removed.empty():
		e.Added, e.Removed = storage.Facts(rec[added.from:added.to]), ""
	case added.empty():
		e.Added, e.Removed = "", storage.Facts(rec[removed.from:removed.to])
	default:
		both := string(rec[added.from:removed.to])
		e.Added = storage.Facts(both[:added.to-added.from])
		e.Removed = storage.Facts(both[removed.from-added.from:])
	}
	return rec
}

// span is where a fact list lies in a record.
type span struct{ from, to int }

func (s span) empty() bool { return s.from == s.to }

// appendRecord is the one writer of a journal record: it appends e's
// framed record to dst, with the two fact lists appended by added and
// removed, and returns it with the spans the lists take in it. A list left
// empty is left out, as encoding/json leaves out an empty field. A list is
// written between its quotes as it is: a fact list never holds a byte JSON
// escapes (storage.Facts).
func (e *Entry) appendRecord(dst []byte, added, removed func([]byte) []byte) (rec []byte, a, r span) {
	rec = storage.AppendJournalRecord(dst, func(b []byte) []byte {
		b = strconv.AppendInt(append(b, `{"seq":`...), int64(e.Seq), 10)
		b = storage.AppendJSONString(append(b, `,"program":`...), e.Program)
		if e.Key != "" {
			b = storage.AppendJSONString(append(b, `,"key":`...), e.Key)
		}
		if e.Constraints != nil {
			b = storage.AppendJSONString(append(b, `,"constraints":`...), *e.Constraints)
		}
		b, a = appendList(b, `,"added":"`, added)
		b, r = appendList(b, `,"removed":"`, removed)
		b = strconv.AppendInt(append(b, `,"fired":`...), int64(e.Fired), 10)
		b = strconv.AppendInt(append(b, `,"strata":`...), int64(e.Strata), 10)
		return append(b, '}')
	})
	return rec, a, r
}

// appendList appends a fact list field, its name and opening quote first,
// and returns where the list lies; an empty list leaves b as it was.
func appendList(b []byte, field string, list func([]byte) []byte) ([]byte, span) {
	n := len(b)
	b = append(b, field...)
	s := span{from: len(b)}
	b = list(b)
	if s.to = len(b); s.empty() {
		return b[:n], span{}
	}
	return append(b, '"'), s
}

// recordOverhead bounds what a framed record holds besides the entry's
// strings: frame header, field names, three integers.
const recordOverhead = 96

// changeBytes is what a changed version mostly costs a record: one fact
// swapped for another, about 14 bytes a side.
const changeBytes = 32

// size is what the entry's strings hold in memory.
func (e Entry) size() int {
	n := len(e.Program) + len(e.Key) + len(e.Added) + len(e.Removed)
	if e.Constraints != nil {
		n += len(*e.Constraints)
	}
	return n
}

// diff decodes the entry's diff — the only place one is.
func (e Entry) diff() (objectbase.Diff, error) {
	d, err := storage.DecodeDiff(e.Added, e.Removed)
	if err != nil {
		return d, fmt.Errorf("repository: journal entry %d: %w", e.Seq, err)
	}
	return d, nil
}

// replay applies the diffs of entries, in order, to the mutable base.
// Recovery uses it, not replayDerived: derived, each bulk entry builds a new root (E23).
func replay(base *objectbase.Base, entries []Entry) error {
	for _, e := range entries {
		d, err := e.diff()
		if err != nil {
			return err
		}
		d.Apply(base)
	}
	return nil
}

// replayDerived is replay onto a frozen head: it returns the frozen base
// the entries lead to, sharing with head every state they leave alone.
func replayDerived(head *objectbase.Base, entries []Entry) (*objectbase.Base, error) {
	for _, e := range entries {
		d, err := e.diff()
		if err != nil {
			return nil, err
		}
		head = head.Derive(d.Changes(head))
	}
	return head, nil
}
