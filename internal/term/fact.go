package term

import (
	"fmt"
	"strconv"
	"strings"
	"unique"
)

// Args is a canonically encoded, comparable argument tuple. Most methods
// take no arguments; the encoding keeps Fact a flat comparable value even
// for methods with arguments. The encoding is interned (see OID), so a tuple
// is one word and == on Args is equality of tuples.
type Args struct{ h unique.Handle[string] }

// NoArgs is the empty argument tuple.
var NoArgs = Args{}

// enc returns the canonical encoding, "" for the empty tuple.
func (a Args) enc() string { return interned(a.h) }

// EncodeOIDs encodes a ground argument list given directly as OIDs.
func EncodeOIDs(args []OID) Args {
	if len(args) == 0 {
		return NoArgs
	}
	var b strings.Builder
	for _, o := range args {
		encodeOID(&b, o)
	}
	return Args{h: intern(b.String())}
}

func encodeOID(b *strings.Builder, o OID) {
	switch o.Sort() {
	case SortNum:
		r := o.Rat()
		payload := strconv.FormatInt(r.Num(), 10) + "/" + strconv.FormatInt(r.Den(), 10)
		b.WriteByte('n')
		b.WriteString(strconv.Itoa(len(payload)))
		b.WriteByte(':')
		b.WriteString(payload)
	case SortStr:
		b.WriteByte('t')
		b.WriteString(strconv.Itoa(len(o.Name())))
		b.WriteByte(':')
		b.WriteString(o.Name())
	default:
		b.WriteByte('s')
		b.WriteString(strconv.Itoa(len(o.Name())))
		b.WriteByte(':')
		b.WriteString(o.Name())
	}
}

// Empty reports whether the tuple has no arguments.
func (a Args) Empty() bool { return a == NoArgs }

// cutArg splits the first element off a non-empty encoding: its tag, its
// payload and the encoding of the rest. It panics on a corrupted encoding,
// which cannot arise from EncodeOIDs output.
func cutArg(s string) (tag byte, payload, rest string) {
	colon := strings.IndexByte(s, ':')
	if colon < 2 {
		panic("term: corrupted Args encoding " + strconv.Quote(s))
	}
	n, err := strconv.Atoi(s[1:colon])
	if err != nil || n < 0 || colon+1+n > len(s) {
		panic("term: corrupted Args encoding " + strconv.Quote(s))
	}
	return s[0], s[colon+1 : colon+1+n], s[colon+1+n:]
}

// decodeArg rebuilds one element from its tag and payload.
func decodeArg(tag byte, payload string) OID {
	switch tag {
	case 'n':
		if slash := strings.IndexByte(payload, '/'); slash >= 0 {
			num, err1 := strconv.ParseInt(payload[:slash], 10, 64)
			den, err2 := strconv.ParseInt(payload[slash+1:], 10, 64)
			if err1 == nil && err2 == nil && den != 0 {
				return Num(num, den)
			}
		}
	case 't':
		return Str(payload)
	case 's':
		return Sym(payload)
	}
	panic("term: corrupted Args encoding element " + strconv.Quote(string(tag)+payload))
}

// Decode returns the argument OIDs.
func (a Args) Decode() []OID {
	var out []OID
	for s := a.enc(); len(s) > 0; {
		tag, payload, rest := cutArg(s)
		out = append(out, decodeArg(tag, payload))
		s = rest
	}
	return out
}

// Len returns the number of encoded arguments. It decodes none of them.
func (a Args) Len() int {
	n := 0
	for s := a.enc(); len(s) > 0; n++ {
		_, _, s = cutArg(s)
	}
	return n
}

// First returns the first encoded argument, if any, decoding only that one.
func (a Args) First() (OID, bool) {
	if a == NoArgs {
		return OID{}, false
	}
	tag, payload, _ := cutArg(a.enc())
	return decodeArg(tag, payload), true
}

// CompareEncoded orders argument tuples by their encodings, bytewise: a
// total order that costs no decoding, for callers that need determinism
// rather than the order a human expects (see Compare).
func (a Args) CompareEncoded(b Args) int { return strings.Compare(a.enc(), b.enc()) }

// Compare orders argument tuples by length, then element-wise by OID order
// — the order a human expects in sorted output (the raw encoding is
// length-prefixed and would sort "plum" before "apple").
func (a Args) Compare(b Args) int {
	if a == b {
		return 0
	}
	as, bs := a.Decode(), b.Decode()
	if len(as) != len(bs) {
		if len(as) < len(bs) {
			return -1
		}
		return 1
	}
	for i := range as {
		if c := as[i].Compare(bs[i]); c != 0 {
			return c
		}
	}
	return 0
}

// String renders "@a1,...,ak" or "".
func (a Args) String() string {
	oids := a.Decode()
	if len(oids) == 0 {
		return ""
	}
	parts := make([]string, len(oids))
	for i, o := range oids {
		parts[i] = o.String()
	}
	return "@" + strings.Join(parts, ",")
}

// Fact is a ground version-term V.m@a1,...,ak -> r: the unit of storage of
// an object base. It is a flat comparable value.
type Fact struct {
	V      GVID
	Method string
	Args   Args
	Result OID
}

// NewFact builds a fact with no arguments.
func NewFact(v GVID, method string, result OID) Fact {
	return Fact{V: v, Method: method, Result: result}
}

// WithV returns the fact re-addressed to version v (the "copy" operation of
// step 2 of the T_P operator).
func (f Fact) WithV(v GVID) Fact {
	f.V = v
	return f
}

// IsExists reports whether the fact is an application of the reserved
// exists method.
func (f Fact) IsExists() bool { return f.Method == ExistsMethod }

// String renders the fact in concrete syntax (without trailing period).
func (f Fact) String() string {
	return fmt.Sprintf("%s.%s%s -> %s", f.V, f.Method, f.Args, f.Result)
}

// Compare orders facts for deterministic output: by VID, method, args,
// result.
func (f Fact) Compare(g Fact) int {
	if c := f.V.Compare(g.V); c != 0 {
		return c
	}
	if c := strings.Compare(f.Method, g.Method); c != 0 {
		return c
	}
	if c := f.Args.Compare(g.Args); c != 0 {
		return c
	}
	return f.Result.Compare(g.Result)
}

// MethodKey identifies a method application shape (name + argument tuple)
// independent of version and result; step 3 of T_P groups by it.
type MethodKey struct {
	Method string
	Args   Args
}

// Key returns the fact's method key.
func (f Fact) Key() MethodKey { return MethodKey{Method: f.Method, Args: f.Args} }

func (k MethodKey) String() string { return k.Method + k.Args.String() }

// Key is an interned MethodKey, one word, as Args is an interned tuple: ==
// on Keys is equality of the keys they hold. The zero Key holds none.
type Key struct{ h unique.Handle[MethodKey] }

// Intern returns the interned form of k. It hashes k: hold the result
// where a key is used more than once.
func (k MethodKey) Intern() Key { return Key{unique.Make(k)} }

// MethodKey returns the key k holds, without hashing it.
func (k Key) MethodKey() MethodKey { return k.h.Value() }
