package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc64"
	"hash/fnv"
	"math/rand"
	"slices"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// TestFactHashIsFNVAndCRC64: the two lanes are FNV-1a 64 and CRC-64/ECMA as
// the standard library computes them, whichever pieces the bytes are fed in.
func TestFactHashIsFNVAndCRC64(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	table := crc64.MakeTable(crc64.ECMA)
	for trial := 0; trial < 500; trial++ {
		data := make([]byte, rng.Intn(80))
		rng.Read(data)
		cut := rng.Intn(len(data) + 1)
		got := feed(feed(newFactHash(), data[:cut]), data[cut:]).sum()
		f := fnv.New64a()
		f.Write(data)
		if want := (Digest{f.Sum64(), crc64.Checksum(data, table)}); got != want {
			t.Fatalf("%x cut at %d: %v, want %v", data, cut, got, want)
		}
	}
}

// TestFactsDigestIsAMultisetHash: the digest of an encoded list is the sum
// of its facts' digests, each fact hashed in its stand-alone encoding, so it
// does not depend on how the facts are grouped or ordered (a fact after "/"
// is hashed with the vid of its group, quoted dots and all); and the digest
// of a base moves by the digests of a diff's two lists.
func TestFactsDigestIsAMultisetHash(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		facts := nastyFacts(rng, 1+rng.Intn(12))
		list := []byte(EncodeFacts(facts))
		var each Digest
		for _, f := range facts {
			each = each.Add(FactsDigest([]byte(EncodeFacts([]term.Fact{f}))))
		}
		if got := FactsDigest(list); got != each || got != digestOf(slices.Values(facts)) {
			t.Fatalf("trial %d: %s hashes to %v; its facts one by one to %v, digestOf to %v", trial, list, got, each, digestOf(slices.Values(facts)))
		}
		rng.Shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
		if got := digestOf(slices.Values(facts)); got != each {
			t.Fatalf("trial %d: the shuffled facts hash to %v, want %v", trial, got, each)
		}

		from := randomBase(rng).Freeze()
		to := from.Clone()
		for _, f := range nastyFacts(rng, rng.Intn(6)) {
			to.Insert(f)
		}
		for i, f := range from.Facts() {
			if !f.IsExists() && (i+trial)%3 == 0 {
				to.Remove(f)
			}
		}
		added, removed := EncodeDiff(objectbase.Compute(from, to))
		if got, want := BaseDigest(from).Add(FactsDigest([]byte(added))).Sub(FactsDigest([]byte(removed))), BaseDigest(to); got != want {
			t.Fatalf("trial %d: the diff moves the digest to %v, the target base hashes to %v", trial, got, want)
		}
	}
}

// TestDigestText: a digest is written as 32 lowercase hex digits and read
// back from exactly that.
func TestDigestText(t *testing.T) {
	d := Digest{0x0123456789abcdef, 1<<63 | 42}
	if got := d.String(); got != "0123456789abcdef800000000000002a" {
		t.Fatalf("String = %s", got)
	}
	var back Digest
	if err := back.UnmarshalText([]byte(d.String())); err != nil || back != d {
		t.Fatalf("read back as %v, %v", back, err)
	}
	for _, bad := range []string{"", "0123456789ABCDEF800000000000002a", "0123456789abcdef800000000000002", "0123456789abcdef800000000000002ag"} {
		if err := back.UnmarshalText([]byte(bad)); err == nil {
			t.Errorf("%q read as a digest", bad)
		}
	}
}

// TestCheckpointDigest: a snapshot's header carries the digest of its
// facts; ReadLog and SkipCheckpoint hash the facts records as they stream
// and refuse a header that says otherwise, and a header without a digest,
// as earlier versions wrote it, reads with the digest computed.
func TestCheckpointDigest(t *testing.T) {
	b := sampleBase(t)
	snap := Snapshot{Base: b, Seq: 3}.Append(nil)
	first, rest, _ := bytes.Cut(snap, []byte("\n"))
	payload, err := ParseJournalLine(first, 1)
	if err != nil {
		t.Fatal(err)
	}
	var hdr snapshotHeader
	if err := json.Unmarshal(payload, &hdr); err != nil || hdr.Digest == nil || *hdr.Digest != BaseDigest(b) {
		t.Fatalf("header %s: digest %v, want %v (%v)", payload, hdr.Digest, BaseDigest(b), err)
	}
	withHeader := func(hdr snapshotHeader) []byte {
		payload, _ := json.Marshal(hdr)
		return append(FrameJournalRecord(payload), rest...)
	}
	for name, c := range map[string]struct {
		digest *Digest
		ok     bool
	}{
		"its own digest": {hdr.Digest, true},
		"no digest":      {nil, true},
		"another digest": {&Digest{1, 2}, false},
	} {
		h := hdr
		h.Digest = c.digest
		data := withHeader(h)
		got, err := LoadSnapshot(bytes.NewReader(data))
		if (err == nil) != c.ok || c.ok && (got.Digest != BaseDigest(b) || !got.Base.Equal(b)) {
			t.Errorf("%s: LoadSnapshot digest %v, %v", name, got.Digest, err)
		}
		seq, digest, after, err := SkipCheckpoint(append(data, "v1 00000000 x\n"...))
		if (err == nil) != c.ok || c.ok && (seq != 3 || digest != BaseDigest(b) || string(after) != "v1 00000000 x\n") {
			t.Errorf("%s: SkipCheckpoint seq %d digest %v, rest %q, %v", name, seq, digest, after, err)
		}
	}
	if _, _, _, err := SkipCheckpoint(snap[:len(snap)-1]); err == nil {
		t.Error("SkipCheckpoint read a checkpoint cut short")
	}
	empty := Snapshot{Base: objectbase.New()}.Append(nil)
	if s, err := LoadSnapshot(bytes.NewReader(empty)); err != nil || s.Digest != (Digest{}) {
		t.Errorf("the empty base: digest %v, %v", s.Digest, err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(FrameJournalRecord(fmt.Appendf(nil, `{"snapshot":2,"seq":0,"facts":0,"digest":"%s"}`, Digest{1, 2})))); err == nil {
		t.Error("an empty base whose header names a digest read")
	}
}
