package storage

import (
	"bytes"
	"math/rand"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// randomBase builds a random object base mixing sorts, paths, and
// argumented methods.
func randomBase(rng *rand.Rand) *objectbase.Base {
	b := objectbase.New()
	objs := []term.OID{term.Sym("a"), term.Sym("b"), term.Str("odd name"), term.Sym("c9")}
	methods := []string{"m", "sal", "note", "rate"}
	for i := 0; i < 5+rng.Intn(40); i++ {
		var kinds []term.UpdateKind
		for d := rng.Intn(4); d > 0; d-- {
			kinds = append(kinds, []term.UpdateKind{term.Ins, term.Del, term.Mod}[rng.Intn(3)])
		}
		var args []term.OID
		for a := rng.Intn(3); a > 0; a-- {
			args = append(args, term.Int(int64(rng.Intn(10))))
		}
		var result term.OID
		switch rng.Intn(3) {
		case 0:
			result = term.Num(int64(rng.Intn(2000)-1000), int64(rng.Intn(9)+1))
		case 1:
			result = term.Sym("v" + string(rune('a'+rng.Intn(26))))
		default:
			result = term.Str("s\nwith\tescapes\"")
		}
		b.Insert(term.Fact{
			V:      term.GVID{Object: objs[rng.Intn(len(objs))], Path: term.PathOf(kinds...)},
			Method: methods[rng.Intn(len(methods))],
			Args:   term.EncodeOIDs(args),
			Result: result,
		})
	}
	return b
}

// TestPropertyBinaryRoundTrip: SaveBinaryAt/LoadBinaryAt is the identity on
// arbitrary bases.
func TestPropertyBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 50; trial++ {
		b := randomBase(rng)
		var buf bytes.Buffer
		if err := SaveBinaryAt(&buf, b, trial); err != nil {
			t.Fatalf("trial %d: save: %v", trial, err)
		}
		got, seq, err := LoadBinaryAt(bytes.NewReader(buf.Bytes()))
		if err != nil || seq != trial {
			t.Fatalf("trial %d: load: seq %d, %v", trial, seq, err)
		}
		// FromFacts seeds exists for plain-object subjects; the original
		// may lack them, so compare the original's facts as a subset and
		// the reverse modulo exists.
		for _, f := range b.Facts() {
			if !got.Has(f) {
				t.Fatalf("trial %d: lost %s", trial, f)
			}
		}
		for _, f := range got.Facts() {
			if !f.IsExists() && !b.Has(f) {
				t.Fatalf("trial %d: invented %s", trial, f)
			}
		}
	}
}

// TestPropertyTextRoundTrip: text format round-trips every non-exists fact,
// including strings that need escaping.
func TestPropertyTextRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		b := randomBase(rng)
		var buf bytes.Buffer
		if err := SaveText(&buf, b); err != nil {
			t.Fatalf("save: %v", err)
		}
		got, err := parser.ObjectBase(buf.String(), "roundtrip")
		if err != nil {
			t.Fatalf("trial %d: load: %v\n%s", trial, err, buf.String())
		}
		for _, f := range b.Facts() {
			if f.IsExists() {
				continue
			}
			if !got.Has(f) {
				t.Fatalf("trial %d: lost %s\ntext:\n%s\nreloaded:\n%s",
					trial, f, buf.String(), parser.FormatFacts(got, true))
			}
		}
	}
}
