package repository

import (
	"encoding/json"
	"errors"
	"strconv"

	"verlog/internal/storage"
)

// Entry is one journal record: an applied program, or the installation of a
// constraint set or the opening of a replication epoch, which have no
// program. The record holds the request and
// the digest of the state it leads to, not its effect: a state is a
// function of the state before it and the program (§3–§5), so recovery and
// followers derive it again by evaluation and check it against the digest.
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
	// Epoch is the replication epoch an epoch record opens, past the one
	// in force before it; 0 in every other record. A promotion writes it.
	Epoch uint64 `json:"epoch,omitempty"`
	// NumAdded and NumRemoved count the facts the entry's program added to
	// and removed from the state before it. They are resident only, never
	// journaled: the commit counts them off its changes as it sums the
	// digest, recovery and followers off the evaluation they check the
	// record with. Log reads them, and At and Replay check their own
	// evaluations against them. Two 32-bit counts take the room of one
	// int, so the entry is no larger than the ones whose diff fields
	// (Added, Removed) were in use.
	NumAdded   int32 `json:"-"`
	NumRemoved int32 `json:"-"`
	// Added and Removed are neither set nor read: an entry keeps no diff,
	// and these stay only because the end-to-end benchmark's per-layer pass
	// (benchmarks/load) builds entries with them. ROADMAP item 11, which
	// re-bases that pass, removes them.
	Added   storage.Facts `json:"-"`
	Removed storage.Facts `json:"-"`
	// Fired is the number of ground updates the evaluation fired.
	Fired int `json:"fired"`
	// Strata is the number of strata of the program.
	Strata int `json:"strata"`
	// Digest is the digest of the state the entry leads to; nil when that
	// is the digest of the state before it, the state the entry left as it
	// was (a constraints record, an apply that changed nothing).
	Digest *storage.Digest `json:"digest,omitempty"`
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
		if e.Constraints != nil {
			b = storage.AppendJSONString(append(b, `,"constraints":`...), *e.Constraints)
		}
		if e.Epoch != 0 {
			b = strconv.AppendUint(append(b, `,"epoch":`...), e.Epoch, 10)
		}
		b = strconv.AppendInt(append(b, `,"fired":`...), int64(e.Fired), 10)
		b = strconv.AppendInt(append(b, `,"strata":`...), int64(e.Strata), 10)
		if e.Digest != nil {
			b = append(e.Digest.AppendHex(append(b, `,"digest":"`...)), '"')
		}
		return append(b, '}')
	})
}

// recordCap is room for the entry's framed record: its strings, and a bound
// on the frame header, field names, three integers and the digest field.
func (e Entry) recordCap() int {
	n := len(e.Program) + len(e.Key) + 96
	if e.Digest != nil {
		n += len(`,"digest":""`) + 32
	}
	return n
}

// size is what the entry's strings hold in memory.
func (e Entry) size() int {
	n := len(e.Program) + len(e.Key)
	if e.Constraints != nil {
		n += len(*e.Constraints)
	}
	return n
}

// errDiffRecord refuses a record that carries its diff: the journals of
// earlier versions did, and they are not read by evaluation.
var errDiffRecord = errors.New("the record carries a diff (\"added\"/\"removed\"): it was written by a version that journaled diffs, which this one does not read. " +
	"Run `verlog repo compact` on the directory with the binary that wrote it; that leaves a checkpoint with no records, which this version opens (README)")

// decodeEntry decodes a record's payload.
func decodeEntry(payload []byte) (Entry, error) {
	var rec struct {
		Entry
		OldAdded   json.RawMessage `json:"added"`
		OldRemoved json.RawMessage `json:"removed"`
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return Entry{}, err
	}
	if rec.OldAdded != nil || rec.OldRemoved != nil {
		return Entry{}, errDiffRecord
	}
	return rec.Entry, nil
}
