package repository

import (
	"fmt"
	"strconv"

	"verlog/internal/objectbase"
	"verlog/internal/storage"
)

// Entry is one journal record: an applied program and its effect.
type Entry struct {
	// Seq numbers applied programs from 1 and keeps counting across
	// compactions (the snapshot records which seq it represents).
	Seq int `json:"seq"`
	// Program is the canonical text of the applied program.
	Program string `json:"program"`
	// Key is the idempotency key the update was committed under, if any.
	Key string `json:"key,omitempty"`
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
	return storage.AppendJournalRecord(dst, func(b []byte) []byte {
		b = strconv.AppendInt(append(b, `{"seq":`...), int64(e.Seq), 10)
		b = storage.AppendJSONString(append(b, `,"program":`...), e.Program)
		if e.Key != "" {
			b = storage.AppendJSONString(append(b, `,"key":`...), e.Key)
		}
		if e.Added != "" {
			b = storage.AppendJSONString(append(b, `,"added":`...), string(e.Added))
		}
		if e.Removed != "" {
			b = storage.AppendJSONString(append(b, `,"removed":`...), string(e.Removed))
		}
		b = strconv.AppendInt(append(b, `,"fired":`...), int64(e.Fired), 10)
		b = strconv.AppendInt(append(b, `,"strata":`...), int64(e.Strata), 10)
		return append(b, '}')
	})
}

// recordOverhead bounds what a framed record holds besides the entry's
// strings: frame header, field names, three integers.
const recordOverhead = 96

// size is what the entry's strings hold in memory, and with recordOverhead
// the capacity its record needs unless a string has to be escaped.
func (e Entry) size() int {
	return len(e.Program) + len(e.Key) + len(e.Added) + len(e.Removed)
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
