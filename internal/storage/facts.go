package storage

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// Facts is a fact list in the journal's compact encoding: the form a diff
// is built in, written in, kept resident in and shipped to followers in.
// It is a plain string — no pointers for the collector to trace, no
// newline, nothing JSON has to escape — and is decoded only where a diff is
// replayed. The empty string is the empty list.
//
//	facts  = fact { ";" fact | "/" method-part }
//	fact   = vid "." method-part
//	method-part = name [ "@" oid { "," oid } ] "=" oid
//	vid    = oid [ "^" kinds ]          e1^md is del(mod(e1)): kinds innermost first
//	oid    = number | name | "'" text "'" | "$'" text "'"
//	number = [ "-" ] digits [ "r" digits ]      652r7 is 652/7
//	name   = ( letter | "_" ) { letter | digit | "_" }      ASCII only
//
// As in the language's own syntax, "/" continues with another method of the
// version before it, so e1.isa=empl/sal=4000;e2.sal=10 holds three facts. A
// quoted oid is a string, "$" marks a symbol whose name is not a plain
// name, and a method that is not a plain name is quoted without a mark.
// Inside quotes every byte that means something to this syntax, to JSON or
// to an HTML-escaping JSON writer, and every byte that is not valid UTF-8,
// is written %xx, lower-case hex (see escaped), so a separator never occurs inside a fact
// and the bytes of a list are a function of its facts alone.
type Facts string

// Len returns the number of facts in the list.
func (f Facts) Len() int {
	if f == "" {
		return 0
	}
	return 1 + strings.Count(string(f), ";") + strings.Count(string(f), "/")
}

// UnmarshalJSON reads the list from a journal record: a JSON string holding
// the compact encoding, or — in records written before it existed — an
// array of FactRecord objects, which is re-encoded. This is the one place
// that form is still read.
func (f *Facts) UnmarshalJSON(data []byte) error {
	if len(data) >= 2 && data[0] == '"' && bytes.IndexByte(data, '\\') < 0 {
		*f = Facts(data[1 : len(data)-1]) // no escapes: the common case, one copy
		return nil
	}
	if len(data) == 0 || data[0] != '[' {
		return json.Unmarshal(data, (*string)(f))
	}
	var recs []FactRecord
	if err := json.Unmarshal(data, &recs); err != nil {
		return err
	}
	var enc factEncoder
	for _, rec := range recs {
		fact, err := DecodeFact(rec)
		if err != nil {
			return err
		}
		enc.add(fact)
	}
	*f = enc.facts()
	return nil
}

// EncodeFacts encodes a fact list.
func EncodeFacts(facts []term.Fact) Facts {
	var enc factEncoder
	for _, f := range facts {
		enc.add(f)
	}
	return enc.facts()
}

// EncodeDiff encodes a diff's two fact lists.
func EncodeDiff(d objectbase.Diff) (added, removed Facts) {
	return EncodeFacts(d.Added), EncodeFacts(d.Removed)
}

// EncodeChanges encodes the diff a set of changed versions amounts to,
// straight from the changed states: the result equals
// EncodeDiff(objectbase.DiffChanges(changes)) without the fact lists in
// between. changes is sorted by version in place.
func EncodeChanges(changes []objectbase.Change) (added, removed Facts) {
	// A changed version mostly swaps one fact for another of about 16 bytes.
	a := factEncoder{buf: make([]byte, 0, 16*len(changes))}
	r := factEncoder{buf: make([]byte, 0, 16*len(changes))}
	objectbase.ChangedFacts(changes, a.add, r.add)
	return a.facts(), r.facts()
}

// DecodeDiff decodes two encoded fact lists into a diff.
func DecodeDiff(added, removed Facts) (d objectbase.Diff, err error) {
	if d.Added, err = added.Decode(); err != nil {
		return objectbase.Diff{}, err
	}
	if d.Removed, err = removed.Decode(); err != nil {
		return objectbase.Diff{}, err
	}
	return d, nil
}

// factEncoder appends facts to one buffer.
type factEncoder struct {
	buf  []byte
	prev term.GVID // version of the fact before, valid once buf is non-empty
}

func (e *factEncoder) facts() Facts { return Facts(e.buf) }

func (e *factEncoder) add(f term.Fact) {
	b := e.buf
	if len(b) > 0 && f.V == e.prev {
		b = append(b, '/')
	} else {
		if len(b) > 0 {
			b = append(b, ';')
		}
		b = appendOID(b, f.V.Object)
		if f.V.Path != "" {
			b = append(b, '^')
			b = append(b, f.V.Path...)
		}
		b = append(b, '.')
		e.prev = f.V
	}
	b = appendName(b, f.Method, "")
	if !f.Args.Empty() {
		sep := byte('@')
		for _, a := range f.Args.Decode() {
			b = append(b, sep)
			b = appendOID(b, a)
			sep = ','
		}
	}
	b = append(b, '=')
	e.buf = appendOID(b, f.Result)
}

func appendOID(b []byte, o term.OID) []byte {
	switch o.Sort() {
	case term.SortNum:
		r := o.Rat()
		b = strconv.AppendInt(b, r.Num(), 10)
		if r.Den() != 1 {
			b = append(b, 'r')
			b = strconv.AppendInt(b, r.Den(), 10)
		}
		return b
	case term.SortStr:
		return appendQuoted(b, o.Name())
	default:
		return appendName(b, o.Name(), "$")
	}
}

// appendName writes s bare when it is a plain name, else quoted behind mark.
func appendName(b []byte, s, mark string) []byte {
	if isName(s) {
		return append(b, s...)
	}
	return appendQuoted(append(b, mark...), s)
}

func isName(s string) bool {
	if s == "" || s[0] >= '0' && s[0] <= '9' {
		return false
	}
	for i := 0; i < len(s); i++ {
		if !nameByte[s[i]] {
			return false
		}
	}
	return true
}

// Byte classes: the digits, the update kinds of a version path, the bytes
// of a plain name, and escaped — the ASCII bytes quoted text may not hold
// raw: controls, the syntax's own quote, escape and fact separators, what
// JSON escapes (quote, backslash) and what an HTML-escaping JSON writer
// escapes besides (<, >, &).
var digitByte, kindByte, nameByte, escaped = func() (dg, k, n, e [256]bool) {
	for c := 0; c < 256; c++ {
		dg[c] = c >= '0' && c <= '9'
		k[c] = term.UpdateKind(c).Valid()
		n[c] = dg[c] || c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
		e[c] = c < 0x20 || c == 0x7f || strings.IndexByte(`'%;/"\<>&`, byte(c)) >= 0
	}
	return dg, k, n, e
}()

func appendQuoted(b []byte, s string) []byte {
	b = append(b, '\'')
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf && !escaped[c] {
			b = append(b, c)
			i++
			continue
		}
		if c >= utf8.RuneSelf {
			if r, size := utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || size > 1 {
				b = append(b, s[i:i+size]...)
				i += size
				continue
			}
		}
		b = append(b, '%', lowerHex[c>>4], lowerHex[c&15])
		i++
	}
	return append(b, '\'')
}

// Decode parses the list. The facts share no memory with it, so a base they
// are inserted into does not keep the record they came from alive.
func (f Facts) Decode() ([]term.Fact, error) {
	if f == "" {
		return nil, nil
	}
	d := factDecoder{s: string(f)}
	out := make([]term.Fact, 0, f.Len())
	var fact term.Fact
	for sep := byte(';'); ; d.i++ {
		if sep == ';' {
			fact.V = term.GVID{Object: d.oid()}
			if d.peek() == '^' {
				d.i++
				fact.V.Path = d.kinds()
			}
			d.expect('.')
		}
		fact.Method = d.name(fact.Method)
		fact.Args = term.NoArgs
		if d.peek() == '@' {
			var args []term.OID
			for c := byte('@'); d.peek() == c; c = ',' {
				d.i++
				args = append(args, d.oid())
			}
			fact.Args = term.EncodeOIDs(args)
		}
		d.expect('=')
		fact.Result = d.oid()
		if d.err != nil {
			return nil, d.err
		}
		out = append(out, fact)
		if d.i == len(d.s) {
			return out, nil
		}
		if sep = d.s[d.i]; sep != ';' && sep != '/' {
			d.fail("want ; or / after a fact")
			return nil, d.err
		}
	}
}

// factDecoder is a cursor over an encoded list. The first failure sticks in
// err and moves the cursor to the end, so every later step fails too and
// callers check once per fact.
type factDecoder struct {
	s   string
	i   int
	err error
}

func (d *factDecoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("storage: corrupted fact list at byte %d: %s", d.i, what)
		d.i = len(d.s)
	}
}

// peek returns the next byte, 0 at the end.
func (d *factDecoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *factDecoder) expect(c byte) {
	if d.peek() != c {
		d.fail("want " + strconv.QuoteRune(rune(c)))
		return
	}
	d.i++
}

// span advances over the run of bytes in set and returns it.
func (d *factDecoder) span(set *[256]bool) string {
	start := d.i
	for d.i < len(d.s) && set[d.s[d.i]] {
		d.i++
	}
	return d.s[start:d.i]
}

// name reads a method name. prev is the one read before: facts of one
// record mostly share theirs, and sharing the string saves the copy.
func (d *factDecoder) name(prev string) string {
	c := d.peek()
	if c == '\'' {
		return d.quoted()
	}
	tok := d.span(&nameByte)
	if tok == "" || c >= '0' && c <= '9' {
		d.fail("want a name")
		return ""
	}
	if tok == prev {
		return prev
	}
	return strings.Clone(tok)
}

func (d *factDecoder) oid() term.OID {
	switch c := d.peek(); {
	case c == '\'':
		return term.Str(d.quoted())
	case c == '$':
		d.i++
		return term.Sym(d.quoted())
	case c == '-' || c >= '0' && c <= '9':
		start := d.i
		d.i++
		d.span(&digitByte)
		n, err := strconv.ParseInt(d.s[start:d.i], 10, 64)
		den := int64(1)
		if err == nil && d.peek() == 'r' {
			start = d.i + 1
			d.i++
			d.span(&digitByte)
			den, err = strconv.ParseInt(d.s[start:d.i], 10, 64)
		}
		if err != nil || den <= 0 {
			d.fail("malformed number")
			return term.OID{}
		}
		return term.Num(n, den)
	default:
		tok := d.span(&nameByte)
		if tok == "" {
			d.fail("want an oid")
		}
		return term.Sym(strings.Clone(tok))
	}
}

// kinds reads a version path.
func (d *factDecoder) kinds() term.Path {
	p := d.span(&kindByte)
	if p == "" {
		d.fail("want update kinds after ^")
	}
	return term.Path(strings.Clone(p))
}

// quoted reads 'text' and undoes its escapes.
func (d *factDecoder) quoted() string {
	d.expect('\'')
	end := strings.IndexByte(d.s[d.i:], '\'')
	if end < 0 {
		d.fail("unterminated quote")
		return ""
	}
	text := d.s[d.i : d.i+end]
	if strings.ContainsAny(text, ";/") {
		d.fail("a raw separator inside quotes")
		return ""
	}
	d.i += end + 1
	if strings.IndexByte(text, '%') < 0 {
		return strings.Clone(text)
	}
	out := make([]byte, 0, len(text))
	for i := 0; i < len(text); i++ {
		c := text[i]
		if c == '%' {
			if i+2 >= len(text) {
				d.fail("truncated escape")
				return ""
			}
			hi, lo := strings.IndexByte(lowerHex, text[i+1]), strings.IndexByte(lowerHex, text[i+2])
			if hi < 0 || lo < 0 {
				d.fail("malformed escape")
				return ""
			}
			c = byte(hi<<4 | lo)
			i += 2
		}
		out = append(out, c)
	}
	return string(out)
}
