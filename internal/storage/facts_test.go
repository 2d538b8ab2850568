package storage

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
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

// TestChangesDigestMatchesCompute: the digest summed straight from changed
// states, in whatever order they come, is that of the lists the two-base
// oracle renders — the added list's digest minus the removed list's — its
// counts are the lists' lengths, and it carries the digest of the base the
// changes start from to that of the base they lead to.
func TestChangesDigestMatchesCompute(t *testing.T) {
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
		changes := obtest.Changes(from, d)
		rng.Shuffle(len(changes), func(i, j int) { changes[i], changes[j] = changes[j], changes[i] })
		order := slices.Clone(changes)
		added, removed := EncodeDiff(d)
		sum, nAdded, nRemoved := ChangesDigest(changes)
		if want := FactsDigest([]byte(added)).Sub(FactsDigest([]byte(removed))); sum != want || nAdded != len(d.Added) || nRemoved != len(d.Removed) {
			t.Fatalf("trial %d: ChangesDigest = %s +%d -%d; the rendered lists give %s +%d -%d", trial, sum, nAdded, nRemoved, want, len(d.Added), len(d.Removed))
		}
		if got, want := BaseDigest(from).Add(sum), BaseDigest(to); got != want {
			t.Fatalf("trial %d: the changes carry the digest to %s, the base they lead to hashes to %s", trial, got, want)
		}
		if !slices.Equal(changes, order) {
			t.Fatalf("trial %d: ChangesDigest reordered the changes", trial)
		}
	}
}

// TestChangesDigestAllocatesNothing: a commit sums its digest in one buffer
// on the stack, so once a fact's encoding fits it nothing is allocated (a
// method with arguments decodes them, which does allocate).
func TestChangesDigestAllocatesNothing(t *testing.T) {
	from := objectbase.New()
	for i := range 40 {
		v := term.GV(term.Str(fmt.Sprintf("e %d", i)), term.Mod)
		from.Insert(term.NewFact(v, "sal", term.Num(int64(i), 7)))
		from.Insert(term.NewFact(v, "isa", term.Sym("empl")))
	}
	from.Freeze()
	to := from.Clone()
	for i, f := range from.Facts() {
		if i%3 == 0 {
			to.Remove(f)
		}
	}
	to.Insert(term.NewFact(term.GV(term.Sym("new")), "sal", term.Int(7)))
	changes := obtest.Changes(from, objectbase.Compute(from, to))
	if allocs := testing.AllocsPerRun(100, func() { ChangesDigest(changes) }); allocs != 0 {
		t.Errorf("ChangesDigest allocates %.0f times a call, want none", allocs)
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

// diffCodecSeeds are the seed corpus of FuzzDiffCodec, which
// FuzzChangesDigest starts from too.
var diffCodecSeeds = []struct {
	data []byte
	pos  uint16
	flip byte
}{
	{[]byte("e12.sal=4213"), 3, 1},
	{[]byte("e1.isa=empl/sal=4000;e2^md.cell@1,'k'=-652r7;$'7 up'.'odd m'='x%3by'"), 20, 0x40},
	{[]byte("\x02a\x00\x01\xffm'\"\n;/%\\<>&\x03"), 0, 0xff},
	{[]byte("\x01\x04a\"\\b\x00\x01m\x00\x01\x02\"\\"), 0, 0}, // 'a"\b'.m='"\': what JSON escapes, quoted
}

// FuzzDiffCodec: decode∘encode is the identity on fact lists built from
// arbitrary bytes, and so is a snapshot of the base they make; an arbitrary
// string decodes or is refused, never panics, and what it decodes to
// survives a round trip; and one corrupted byte anywhere in a framed record
// or a snapshot is always caught — it never reads as a record with a
// different diff, or as a different base.
func FuzzDiffCodec(f *testing.F) {
	for _, seed := range diffCodecSeeds {
		f.Add(seed.data, seed.pos, seed.flip)
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		facts := factsFromBytes(data)
		enc := checkRoundTrip(t, facts)

		if direct, err := Facts(data).Decode(); err == nil {
			if re := EncodeFacts(direct); re != Facts(data) {
				t.Fatalf("%q decodes, but re-encodes as %q", data, re)
			}
			checkRoundTrip(t, direct)
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

// FuzzChangesDigest: the digest a commit sums straight from its changes is
// the one its rendered lists give — FactsDigest of the added list minus that
// of the removed list, the lists rendered from the facts put in each side,
// not through the walker — and its counts are the lists' lengths, on change
// lists that add, change and empty versions of any facts the codec encodes
// (quoted OIDs, version paths, methods with arguments). The input is
// FuzzDiffCodec's, read as facts in pairs that share a version: bit i of pos
// puts fact i in the version's old state, bit i of flip in its new one.
func FuzzChangesDigest(f *testing.F) {
	for _, seed := range diffCodecSeeds {
		f.Add(seed.data, seed.pos, seed.flip)
	}
	rng := rand.New(rand.NewSource(61))
	for range 8 {
		data := make([]byte, 32+rng.Intn(224))
		rng.Read(data)
		f.Add(data, uint16(rng.Intn(1<<16)), byte(rng.Intn(256)))
	}
	f.Fuzz(func(t *testing.T, data []byte, pos uint16, flip byte) {
		facts := factsFromBytes(data)
		sides := [2]map[term.GVID]*objectbase.State{{}, {}} // old, new
		in := [2]map[term.Fact]bool{{}, {}}
		var versions []term.GVID
		for i, fact := range facts {
			fact.V = facts[i&^1].V
			if !slices.Contains(versions, fact.V) {
				versions = append(versions, fact.V)
			}
			for side, on := range [2]bool{pos>>(i%16)&1 != 0, flip>>(i%8)&1 != 0} {
				if !on {
					continue
				}
				st := sides[side][fact.V]
				if st == nil {
					st = objectbase.NewState()
					sides[side][fact.V] = st
				}
				st.Add(fact.Key(), fact.Result)
				in[side][fact] = true
			}
		}
		var changes []objectbase.Change
		for _, v := range versions {
			if old, new := sides[0][v], sides[1][v]; old != nil || new != nil {
				changes = append(changes, objectbase.Change{V: v, Old: old, New: new})
			}
		}
		// The lists, rendered from the sets the states were built from.
		var lists [2][]term.Fact // added, removed
		for side := range 2 {
			for fact := range in[1-side] {
				if !in[side][fact] {
					lists[side] = append(lists[side], fact)
				}
			}
			slices.SortFunc(lists[side], term.Fact.Compare)
		}
		added, removed := EncodeFacts(lists[0]), EncodeFacts(lists[1])
		sum, nAdded, nRemoved := ChangesDigest(changes)
		if want := FactsDigest([]byte(added)).Sub(FactsDigest([]byte(removed))); sum != want || nAdded != len(lists[0]) || nRemoved != len(lists[1]) {
			t.Fatalf("ChangesDigest = %s +%d -%d; the rendered lists +%q -%q give %s +%d -%d",
				sum, nAdded, nRemoved, added, removed, want, len(lists[0]), len(lists[1]))
		}
	})
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
