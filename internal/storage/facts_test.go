package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// nastyStrings are names and string values that collide with every syntax
// a journal record passes through: the fact encoding's own separators,
// quote and escape, JSON's, HTML escaping's, newlines (the record
// delimiter), UTF-8 of every width and bytes that are no UTF-8 at all.
var nastyStrings = []string{
	"", "x", "empl", "E", "_", "e12", "12", "-3", "1r3", "a b", "a.b", "a=b", "a@b,c", "a^m", "$", "$'x'",
	"'", "''", "%", "%41", "%4", ";", "/", "a;b/c", `"`, `\`, `\"`, "\n", "\r\n", "\t", "\x00", "\x7f",
	"<-", "->", "<&>", "π ≠ 3", "日本語", "𝔘", "\u2028", "\xff", "a\xc3", "\xe2\x82", "exists", "müller",
}

func nastyOID(rng *rand.Rand) term.OID {
	s := nastyStrings[rng.Intn(len(nastyStrings))]
	switch rng.Intn(5) {
	case 0:
		return term.Sym(s)
	case 1:
		return term.Str(s)
	case 2:
		return term.Int(int64(rng.Intn(2001) - 1000))
	case 3:
		return term.Num(rng.Int63()-rng.Int63(), 1+rng.Int63n(1000))
	default:
		return []term.OID{term.Int(math.MaxInt64), term.Int(math.MinInt64), term.Num(-1, math.MaxInt64), term.Int(0)}[rng.Intn(4)]
	}
}

func nastyFacts(rng *rand.Rand, n int) []term.Fact {
	kinds := []term.UpdateKind{term.Ins, term.Del, term.Mod}
	facts := make([]term.Fact, n)
	for i := range facts {
		f := &facts[i]
		if i > 0 && rng.Intn(3) == 0 {
			f.V = facts[i-1].V // consecutive facts of one version share its text
		} else {
			f.V.Object = nastyOID(rng)
			for d := rng.Intn(4) - 1; d > 0; d-- {
				f.V.Path = f.V.Path.Push(kinds[rng.Intn(3)])
			}
		}
		f.Method = nastyStrings[rng.Intn(len(nastyStrings))]
		var args []term.OID
		for a := rng.Intn(4) - 1; a > 0; a-- {
			args = append(args, nastyOID(rng))
		}
		f.Args = term.EncodeOIDs(args)
		f.Result = nastyOID(rng)
	}
	return facts
}

// checkRoundTrip holds one fact list against every property of the
// encoding.
func checkRoundTrip(t *testing.T, facts []term.Fact) Facts {
	t.Helper()
	enc := EncodeFacts(facts)
	if enc.Len() != len(facts) {
		t.Fatalf("Len = %d for %d facts: %q", enc.Len(), len(facts), enc)
	}
	for i := 0; i < len(enc); i++ {
		if c := enc[i]; c < 0x20 || c == 0x7f || strings.IndexByte(`"\<>&`, c) >= 0 {
			t.Fatalf("encoding holds byte %q, which JSON or a line-framed journal has to escape: %q", c, enc)
		}
	}
	if !json.Valid([]byte(`"` + string(enc) + `"`)) {
		t.Fatalf("encoding is not a JSON string as it stands: %q", enc)
	}
	// A journal record writes a list between its quotes as it is: the
	// journal's string writer has nothing to escape in it.
	if lit := AppendJSONString(nil, string(enc)); string(lit) != `"`+string(enc)+`"` {
		t.Fatalf("the journal's string writer escapes the list %q: %s", enc, lit)
	}
	back, err := enc.Decode()
	if err != nil {
		t.Fatalf("Decode(%q): %v", enc, err)
	}
	if len(facts) == 0 && len(back) == 0 {
		return enc
	}
	if !reflect.DeepEqual(back, facts) {
		t.Fatalf("decode∘encode is not the identity:\n got %v\nwant %v\n via %q", back, facts, enc)
	}
	// Through a record and back, by either JSON writer.
	type rec struct {
		Added Facts `json:"added,omitempty"`
	}
	for _, payload := range [][]byte{
		mustMarshal(t, rec{enc}),
		append(AppendJSONString([]byte(`{"added":`), string(enc)), '}'),
	} {
		var got rec
		if err := json.Unmarshal(payload, &got); err != nil || got.Added != enc {
			t.Fatalf("record round trip: %q, %v (want %q)", got.Added, err, enc)
		}
	}
	return enc
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFactsRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	checkRoundTrip(t, nil)
	for trial := 0; trial < 2000; trial++ {
		checkRoundTrip(t, nastyFacts(rng, 1+rng.Intn(12)))
	}
}

func TestFactsSyntax(t *testing.T) {
	e12 := term.GV(term.Sym("e12"))
	facts := []term.Fact{
		term.NewFact(e12, "isa", term.Sym("empl")),
		term.NewFact(e12, "sal", term.Int(4213)),
		term.NewFact(term.GV(term.Sym("e12"), term.Mod, term.Del), "rate", term.Num(-652, 7)),
		{V: term.GV(term.Str("a b")), Method: "cell", Args: term.EncodeOIDs([]term.OID{term.Int(1), term.Str("k")}), Result: term.Sym("Big")},
		term.NewFact(term.GV(term.Sym("7up")), "odd method", term.Str("x;y")),
	}
	want := Facts(`e12.isa=empl/sal=4213;e12^md.rate=-652r7;'a b'.cell@1,'k'=Big;$'7up'.'odd method'='x%3by'`)
	if got := checkRoundTrip(t, facts); got != want {
		t.Errorf("encoding:\n got %s\nwant %s", got, want)
	}
}

// TestAppendChangesMatchesCompute: the lists written straight from changed
// states, behind whatever dst already holds, are byte for byte the ones the
// two-base oracle leads to, whatever order the changes come in.
func TestAppendChangesMatchesCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		from := randomBase(rng).Freeze()
		to := from.Clone()
		for _, f := range nastyFacts(rng, rng.Intn(10)) {
			to.Insert(f)
		}
		for i, f := range from.Facts() {
			if !f.IsExists() && (i+trial)%3 == 0 {
				to.Remove(f)
			}
		}
		d := objectbase.Compute(from, to)
		changes := d.Changes(from)
		rng.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
		kept := []byte(`,"added":"`)
		rec := AppendAdded(kept, changes)
		split := len(rec)
		rec = AppendRemoved(rec, changes)
		if string(rec[:len(kept)]) != string(kept) {
			t.Fatalf("trial %d: what dst held changed: %q", trial, rec)
		}
		added, removed := Facts(rec[len(kept):split]), Facts(rec[split:])
		wantAdded, wantRemoved := EncodeDiff(d)
		if added != wantAdded || removed != wantRemoved {
			t.Fatalf("trial %d:\n added %q\n  want %q\nremoved %q\n   want %q", trial, added, wantAdded, removed, wantRemoved)
		}
		back, err := DecodeDiff(added, removed)
		if err != nil {
			t.Fatal(err)
		}
		redo := from.Clone()
		back.Apply(redo)
		if !redo.Equal(to) {
			t.Fatalf("trial %d: replaying the decoded diff does not reach the target base", trial)
		}
	}
}

// TestFactsRefuseJSONEscapes: a list read from a record holds no byte JSON
// escapes, since a record writes its lists between their quotes as they
// are. Escapes of bytes a list may hold raw — a quote, or what a
// U+2028-escaping writer escapes — still read.
func TestFactsRefuseJSONEscapes(t *testing.T) {
	for data, want := range map[string]Facts{
		`"x.m=\u0027a\u0027"`: "x.m='a'",
		`"x.m='\u2028'"`:      "x.m='\u2028'",
		`"x.m='\u00e9'/n=1"`:  "x.m='é'/n=1",
		`"x.m=1;y.m=2"`:       "x.m=1;y.m=2",
	} {
		var f Facts
		if err := f.UnmarshalJSON([]byte(data)); err != nil || f != want {
			t.Errorf("UnmarshalJSON(%s) = %q, %v; want %q", data, f, err, want)
		}
	}
	for _, data := range []string{`"x.m='a\"b'"`, `"x.m='a\\b'"`, `"x.m='a\nb'"`, `"x.m='\u0000'"`} {
		var f Facts
		if err := f.UnmarshalJSON([]byte(data)); err == nil {
			t.Errorf("UnmarshalJSON(%s) = %q, want an error", data, f)
		}
	}
}

func TestFactsDecodeRejectsMalformed(t *testing.T) {
	for _, s := range []string{
		";", "a", "a.", "a.m", "a.m=", "a.m=1;", "a.m=1/", ".m=1", "a.m=1,2", "a..m=1", "a.m==1",
		"a.m=1 ", "a.m=1;b", "a^.m=1", "a^x.m=1", "a^m", "a.m@=1", "a.m@1,=2", "a.1m=2", "a.m=1r0", "a.m=1r-2",
		"a.m=1r", "a.m=-", "a.m=99999999999999999999", "a.m='x", "a.m='x;y'", "a.m='x/y'", "a.m='%4'", "a.m='%4g'",
		"a.m='%4A'", "a.m=$x", "a.m=$", "a.m='x'y", "a.m=\x00", "a.m=é",
	} {
		if facts, err := Facts(s).Decode(); err == nil {
			t.Errorf("Decode(%q) = %v, want an error", s, facts)
		}
	}
}

// TestFactsDecodeOnlyWhatTheEncoderWrites: a list of facts has one
// encoding, so two lists of the same facts are equal byte for byte (Replay's
// divergence check compares them so). Each refused string here decodes to
// facts the encoder writes otherwise; each accepted one is canonical.
func TestFactsDecodeOnlyWhatTheEncoderWrites(t *testing.T) {
	for _, s := range []string{
		`x.m='a"b'`, "x.m='a<b'", "x.m='a\nb'", "x.m='%61'", // raw bytes it escapes, an escape of one it does not
		"x.m='a>b'", "x.m='a&b'", "x.m='a\\b'", "x.m='\xff'", "x.m='\xc3'", "x.m='a%'", // raw; cut escape
		"x.m='%c3%a9'", "x.m='%e2%80%a8'", // a valid rune, escaped
		"x.m=$'abc'", "x.'isa'=1", "x.m@$'k'=1", "$'x'.m=1", // plain names quoted
		"x.m=007", "x.m=-0", "x.m=1r1", "x.m=2r4", "x.m=1r02", // numbers not as written
		"x.a=1;x.b=2", "x^m.a=1;x^m.b=2", // a version repeated after ;
	} {
		if facts, err := Facts(s).Decode(); err == nil {
			t.Errorf("Decode(%q) = %v, want an error", s, facts)
		}
	}
	for _, s := range []string{
		"x.m='%3c'", "x.m='%c3'", "x.m='%c3é'", "x.m='é\u2028'", "x.m=$'7 up'", "x.m=$''", "x.'odd m'=1",
		"x.m=-652r7", "x.m=0", "x.a=1/b=2;x^m.a=1;x.c=3", "x.m='%3b%2f%25%27'",
	} {
		facts, err := Facts(s).Decode()
		if err != nil {
			t.Errorf("Decode(%q): %v", s, err)
		} else if re := EncodeFacts(facts); re != Facts(s) {
			t.Errorf("Decode(%q) re-encodes as %q", s, re)
		}
	}
}

// TestAppendJSONString: the journal's string writer agrees with
// encoding/json on what a string decodes to, and never spends an escape on
// the bytes of a rule arrow.
func TestAppendJSONString(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	check := func(s string) {
		t.Helper()
		lit := AppendJSONString(nil, s)
		var got string
		if err := json.Unmarshal(lit, &got); err != nil {
			t.Fatalf("AppendJSONString(%q) = %s: %v", s, lit, err)
		}
		var want string
		if err := json.Unmarshal(mustMarshal(t, s), &want); err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("AppendJSONString(%q) = %s, which reads back as %q", s, lit, got)
		}
		if bytes.IndexByte(lit, '\n') >= 0 {
			t.Fatalf("AppendJSONString(%q) holds a newline", s)
		}
	}
	for _, s := range nastyStrings {
		check(s)
	}
	for trial := 0; trial < 2000; trial++ {
		b := make([]byte, rng.Intn(24))
		for i := range b {
			b[i] = byte(rng.Intn(256))
			if rng.Intn(2) == 0 {
				b[i] &= 0x7f
			}
		}
		check(string(b))
	}
	if got := string(AppendJSONString(nil, "r: a <- b -> c & d.")); got != `"r: a <- b -> c & d."` {
		t.Errorf("arrows escaped: %s", got)
	}
}

// FuzzDiffCodec: decode∘encode is the identity on fact lists built from
// arbitrary bytes, and so is a snapshot of the base they make; an arbitrary
// string decodes or is refused, never panics, and what it decodes to
// survives a round trip; and one corrupted byte anywhere in a framed record
// or a snapshot is always caught — it never reads as a record with a
// different diff, or as a different base.
func FuzzDiffCodec(f *testing.F) {
	f.Add([]byte("e12.sal=4213"), uint16(3), byte(1))
	f.Add([]byte("e1.isa=empl/sal=4000;e2^md.cell@1,'k'=-652r7;$'7 up'.'odd m'='x%3by'"), uint16(20), byte(0x40))
	f.Add([]byte("\x02a\x00\x01\xffm'\"\n;/%\\<>&\x03"), uint16(0), byte(0xff))
	f.Add([]byte("\x01\x04a\"\\b\x00\x01m\x00\x01\x02\"\\"), uint16(0), byte(0)) // 'a"\b'.m='"\': what JSON escapes, quoted
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		facts := factsFromBytes(data)
		enc := checkRoundTrip(t, facts)

		if direct, err := Facts(data).Decode(); err == nil {
			if re := EncodeFacts(direct); re != Facts(data) {
				t.Fatalf("%q decodes, but re-encodes as %q", data, re)
			}
			checkRoundTrip(t, direct)
			if Facts(data).Len() != len(direct) {
				t.Fatalf("%q: Len = %d, Decode yields %d facts", data, Facts(data).Len(), len(direct))
			}
		}

		snap, err := snapshotRoundTrip(facts)
		if err != nil {
			t.Fatal(err)
		}

		payload := append(AppendJSONString([]byte(`{"seq":1,"added":`), string(enc)), '}')
		line := FrameJournalRecord(payload)
		if n, _, err := ReadJournal(bytes.NewReader(line), nil); n != 1 || err != nil {
			t.Fatalf("intact record: %d records, %v", n, err)
		}
		// A log: the snapshot as its checkpoint, then the record.
		log := append(snap[:len(snap):len(snap)], line...)
		var delivered [][]byte
		readLog := func() error {
			delivered = nil
			_, err := ReadLog(bytes.NewReader(log), func(p []byte) error {
				delivered = append(delivered, p)
				return nil
			})
			return err
		}
		if err := readLog(); err != nil || len(delivered) != 1 || !bytes.Equal(delivered[0], payload) {
			t.Fatalf("intact log %q: %v, delivered %q", log, err, delivered)
		}
		if flip == 0 {
			return
		}
		line[int(pos)%len(line)] ^= flip
		n, _, err := ReadJournal(bytes.NewReader(line), func(p []byte) error {
			t.Errorf("corrupted record %q delivered payload %q", line, p)
			return nil
		})
		if n != 0 || err == nil {
			t.Fatalf("corrupted record %q: %d records, err %v", line, n, err)
		}
		at := int(pos) % len(log)
		log[at] ^= flip
		err = readLog()
		var torn *TornTailError
		switch {
		case at < len(snap) && (err == nil || errors.As(err, &torn)):
			t.Fatalf("log %q with byte %d of its checkpoint flipped: %v, want an error that is no torn tail", log, at, err)
		case at >= len(snap) && (err == nil || len(delivered) > 0):
			t.Fatalf("log %q with byte %d of its record flipped: %v, delivered %q", log, at, err, delivered)
		}
	})
}

// snapshotRoundTrip saves the base of facts as a snapshot, checks that it
// loads back as that base, and returns it.
func snapshotRoundTrip(facts []term.Fact) ([]byte, error) {
	b := objectbase.FromFacts(facts)
	var buf bytes.Buffer
	if err := SaveBinaryAt(&buf, b, len(facts)); err != nil {
		return nil, err
	}
	got, seq, err := LoadBinaryAt(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, fmt.Errorf("snapshot %q: %w", buf.Bytes(), err)
	}
	if seq != len(facts) || !got.Equal(b) {
		return nil, fmt.Errorf("snapshot %q loads as seq %d and\n%v, want seq %d and\n%v", buf.Bytes(), seq, got.Facts(), len(facts), b.Facts())
	}
	return buf.Bytes(), nil
}

// factsFromBytes turns fuzz input into a fact list: every string in it is
// a raw slice of the input.
func factsFromBytes(data []byte) []term.Fact {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	str := func() string {
		n := int(next()) % 9
		if n > len(data) {
			n = len(data)
		}
		s := string(data[:n])
		data = data[n:]
		return s
	}
	oid := func() term.OID {
		switch b := next(); b % 4 {
		case 0:
			return term.Sym(str())
		case 1:
			return term.Str(str())
		case 2:
			return term.Int(int64(int8(next())))
		default:
			n := int64(next())<<56 | int64(next())<<24 | int64(next())
			return term.Num(n, 1+int64(next()))
		}
	}
	kinds := []term.UpdateKind{term.Ins, term.Del, term.Mod}
	var facts []term.Fact
	for len(data) > 0 && len(facts) < 16 {
		var f term.Fact
		f.V.Object = oid()
		for d := next() % 4; d > 0; d-- {
			f.V.Path = f.V.Path.Push(kinds[next()%3])
		}
		f.Method = str()
		var args []term.OID
		for a := next() % 3; a > 0; a-- {
			args = append(args, oid())
		}
		f.Args = term.EncodeOIDs(args)
		f.Result = oid()
		facts = append(facts, f)
	}
	return facts
}
