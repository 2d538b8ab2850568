package storage

import (
	"bytes"
	"errors"
	"hash/crc64"
	"iter"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// Digest is a 128-bit multiset hash of a set of facts (Clarke, Devadas, van
// Dijk, Gassend and Suh, ASIACRYPT 2003): two lanes, each the sum mod 2⁶⁴ of
// one hash of every fact's stand-alone encoding (vid "." method-part, see
// Facts) — FNV-1a 64 in the first lane, CRC-64/ECMA in the second. A sum
// does not depend on order, so adding a fact to a base adds its hash and
// removing one subtracts it: a state's digest follows its changes at the cost
// of the changes. Both hashes are fixed functions of the bytes, unlike
// interned ids or hash/maphash, so every process computes the same digest
// for the same facts.
//
// It guards against accidental divergence — an evaluator that changed, a
// record that decodes to something else — not against an adversary, who can
// forge facts with any sums.
type Digest [2]uint64

// Add returns the digest of the union of two disjoint fact sets.
func (d Digest) Add(e Digest) Digest { return Digest{d[0] + e[0], d[1] + e[1]} }

// Sub returns the digest of d's facts without e's, e's being among them.
func (d Digest) Sub(e Digest) Digest { return Digest{d[0] - e[0], d[1] - e[1]} }

// String returns the digest as 32 lowercase hex digits, first lane first.
func (d Digest) String() string { return string(d.AppendHex(nil)) }

// AppendHex appends the 32 hex digits of String to dst.
func (d Digest) AppendHex(dst []byte) []byte {
	for _, lane := range d {
		for shift := 60; shift >= 0; shift -= 4 {
			dst = append(dst, lowerHex[lane>>shift&15])
		}
	}
	return dst
}

// MarshalText writes the digest as String does.
func (d Digest) MarshalText() ([]byte, error) { return d.AppendHex(nil), nil }

// UnmarshalText reads the 32 lowercase hex digits String writes, and
// nothing else.
func (d *Digest) UnmarshalText(text []byte) error {
	if len(text) != 32 {
		return errors.New("storage: a digest is 32 hex digits")
	}
	var out Digest
	for i, c := range text {
		nibble := strings.IndexByte(lowerHex, c)
		if nibble < 0 {
			return errors.New("storage: a digest is 32 lowercase hex digits")
		}
		out[i/16] = out[i/16]<<4 | uint64(nibble)
	}
	*d = out
	return nil
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

var crcTable = crc64.MakeTable(crc64.ECMA)

// factHash is the two hashes of one fact's encoding, fed piece by piece:
// FNV-1a 64 and CRC-64/ECMA as hash/fnv and hash/crc64 compute them,
// written out so that nothing is allocated.
type factHash Digest

func newFactHash() factHash { return factHash{fnvOffset, ^uint64(0)} }

func feed(h factHash, s []byte) factHash {
	for i := 0; i < len(s); i++ {
		h[0] = (h[0] ^ uint64(s[i])) * fnvPrime
		h[1] = crcTable[byte(h[1])^s[i]] ^ h[1]>>8
	}
	return h
}

func (h factHash) sum() Digest { return Digest{h[0], ^h[1]} }

// FactsDigest returns the digest of the facts of an encoded list, hashing
// each fact's bytes as the list holds them — it splits the list on ";" and
// "/", which quoted text never holds raw, and decodes nothing. A list the
// encoder wrote, a snapshot's facts record included, is hashed exactly.
func FactsDigest(list []byte) Digest {
	var d Digest
	for len(list) > 0 {
		group := list[:indexOf(list, ';')] // one version's facts: vid "." part { "/" part }
		list = list[min(len(group)+1, len(list)):]
		vid := group[:vidEnd(group)]
		for parts := group[len(vid):]; ; {
			part := parts[:indexOf(parts, '/')]
			d = d.Add(feed(feed(newFactHash(), vid), part).sum())
			if len(part) == len(parts) {
				break
			}
			parts = parts[len(part)+1:]
		}
	}
	return d
}

// indexOf returns the index of the first c in s, or len(s).
func indexOf(s []byte, c byte) int {
	if i := bytes.IndexByte(s, c); i >= 0 {
		return i
	}
	return len(s)
}

// vidEnd returns the length of the vid "." that starts a fact: up to the
// first dot outside quotes (a quoted oid may hold a dot), or len(s).
func vidEnd(s []byte) int {
	quoted := false
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\'':
			quoted = !quoted
		case '.':
			if !quoted {
				return i + 1
			}
		}
	}
	return len(s)
}

// digestOf returns the digest of facts, each encoded on its own in a buffer
// the call reuses.
func digestOf(facts iter.Seq[term.Fact]) Digest {
	var d Digest
	var room [128]byte
	buf := room[:0]
	for f := range facts {
		buf = appendFact(buf[:0], f)
		d = d.Add(feed(newFactHash(), buf).sum())
	}
	return d
}

// ChangesDigest returns what a set of changed versions does to a digest —
// the facts the changes add hashed in, the facts they remove hashed out —
// and how many facts each side holds, straight from the changed states: no
// list is rendered and nothing is sorted, since a sum has no order. Each
// fact is encoded on its own, as digestOf encodes it, in one buffer the call
// reuses, so that facts of a few dozen bytes allocate nothing. The state the
// changes lead to from a state of digest d has digest
// d.Add(ChangesDigest(changes)).
func ChangesDigest(changes []objectbase.Change) (d Digest, added, removed int) {
	var room [128]byte
	buf := room[:0]
	hash := func(f term.Fact) Digest {
		buf = appendFact(buf[:0], f)
		return feed(newFactHash(), buf).sum()
	}
	objectbase.ChangedFacts(changes,
		func(f term.Fact) { d = d.Add(hash(f)); added++ },
		func(f term.Fact) { d = d.Sub(hash(f)); removed++ })
	return d, added, removed
}

// BaseDigest returns the digest of every fact of b, exists facts included:
// the digest of b's snapshot. It costs an encoding of the base, in no
// order; a commit keeps its head's digest from its changes instead
// (ChangesDigest).
func BaseDigest(b *objectbase.Base) Digest {
	return digestOf(b.AllFacts())
}
