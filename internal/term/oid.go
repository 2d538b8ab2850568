// Package term defines the abstract syntax of the verlog update language:
// object identities (OIDs), variables, version identities (VIDs), method
// applications, version- and update-terms, built-in atoms, literals, rules
// and programs. It follows Section 2.1 of Kramer/Lausen/Saake (VLDB 1992).
//
// Design notes:
//
//   - Values are modelled as specific OIDs, exactly as in the paper. An OID
//     is either a symbol (henry, empl), an exact rational number (250,
//     11/10), or a string. Numbers are exact rationals so that programs such
//     as the paper's salary update (S' = S*1.1 + 200) reproduce the paper's
//     results (4600, not 4600.000000000001).
//
//   - An OID is two words: an interned name (unique.Handle[string]) and one
//     int64 (see OID). A symbol or a string is its name and a tag; an
//     integer, and a fraction small enough to pack into one word, is a tag
//     handle and the number itself, so that numbers stay inline: an update
//     such as S' = S + 1 mints new ones on every apply, and they need no
//     table. Equality is still equality of values, because each value has
//     one representation: rationals are kept in lowest terms with a positive
//     denominator, and two handles are equal exactly when the strings they
//     were made from are. An argument tuple (Args) is the handle of its
//     canonical encoding, one word. States, fired-update logs, delta
//     buckets, traces and every map keyed by a VID are arrays of these
//     values, so their size is what a bulk apply allocates per touched fact.
//
//   - There is no symbol table of our own. A table per repository that only
//     grows is a leak in a server that never restarts (every name a deleted
//     object ever had stays), and one that shrinks has to know who still
//     refers to an entry — which is what the garbage collector knows:
//     package unique holds its entries weakly and drops a name once no OID
//     refers to it. Interning happens where names enter — the parser, the
//     storage decoders — and where an argument tuple is built or taken
//     apart; evaluation otherwise copies and compares OIDs as values, and a
//     rule over methods without arguments, the common case, interns nothing
//     while it runs. OIDs and Args order through Compare only; a handle has
//     no order.
//
//   - Version-id-terms are always chains of the unary function symbols ins,
//     del, mod applied to an object-id-term. They are therefore represented
//     as a base term plus a Path: a byte string of update kinds, innermost
//     first. Subterm testing becomes prefix testing, and ground VIDs are
//     comparable values usable as map keys.
package term

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
	"unique"
)

// Sort classifies an OID. The paper does not type values; sorts exist only
// so that the built-in arithmetic knows which OIDs are numbers.
type Sort uint8

// OID sorts.
const (
	SortSym Sort = iota // plain symbol such as henry or empl
	SortNum             // exact rational number
	SortStr             // quoted string value
)

func (s Sort) String() string {
	switch s {
	case SortSym:
		return "sym"
	case SortNum:
		return "num"
	case SortStr:
		return "str"
	default:
		return fmt.Sprintf("Sort(%d)", uint8(s))
	}
}

// OID is an object identity (an element of the set O of the paper).
// The zero value is the empty symbol and is not a valid OID.
// OID is a comparable value type and may be used as a map key.
//
// The three sorts share two words, a handle h and a word n:
//
//   - a symbol is {name, 0} and a string {contents, 1} (the zero handle
//     names "", so the zero OID is the empty symbol);
//   - an integer i is {numTag, i};
//   - a fraction p/q in lowest terms with p an int32 and q a uint32 is
//     {ratTag, p<<32 | q}; q ≥ 2 and p ≠ 0, so the word is never 0, 1 or 2;
//   - any other fraction is {"p/q", 2}, its canonical text interned.
//
// numTag is the handle of "", which no name carries (intern gives "" the
// zero handle), so {numTag, n} is no name. A name's word is 0, 1 or 2 and a
// packed fraction's is none of these, so {ratTag, p<<32 | q} is none either.
// Every constructor produces one representation per value, so == on OIDs is
// equality of values; Sort reads the tag without dereferencing the handle.
type OID struct {
	h unique.Handle[string] // the name, numTag or ratTag
	n int64                 // the sort of a name, or the number
}

// The words of a name, by sort; the word of any other handle is a number.
const (
	wordSym    = 0
	wordStr    = 1
	wordBigRat = 2
)

// The handles that tag numbers. numTag is the handle of "", which no name
// carries; ratTag may be any handle, since no name's word is a packed
// fraction's.
var (
	numTag = unique.Make("")
	ratTag = unique.Make("r")
)

// intern returns the handle naming s. The empty name keeps the zero handle,
// so that Sym("") is the zero OID and the empty tuple the zero Args.
func intern(s string) unique.Handle[string] {
	if s == "" {
		return unique.Handle[string]{}
	}
	return unique.Make(s)
}

// interned is the inverse of intern.
func interned(h unique.Handle[string]) string {
	if h == (unique.Handle[string]{}) {
		return ""
	}
	return h.Value()
}

// Sym returns the symbol OID with the given name.
func Sym(name string) OID { return OID{h: intern(name), n: wordSym} }

// Str returns the string-valued OID with the given contents.
func Str(s string) OID { return OID{h: intern(s), n: wordStr} }

// Int returns the numeric OID for the given integer.
func Int(i int64) OID { return OID{h: numTag, n: i} }

// Num returns the numeric OID for the rational num/den. It panics if den is
// zero.
func Num(num, den int64) OID { return FromRat(MakeRat(num, den)) }

// FromRat returns the numeric OID holding r.
func FromRat(r Rat) OID {
	num, den := r.Num(), r.Den()
	switch {
	case den == 1:
		return Int(num)
	case num == int64(int32(num)) && den == int64(uint32(den)):
		return OID{h: ratTag, n: num<<32 | den}
	}
	var b [48]byte
	text := strconv.AppendInt(b[:0], num, 10)
	text = append(text, '/')
	text = strconv.AppendInt(text, den, 10)
	return OID{h: unique.Make(string(text)), n: wordBigRat}
}

// Sort reports the sort of the OID.
func (o OID) Sort() Sort {
	switch {
	case o.IsNum():
		return SortNum
	case o.n == wordSym:
		return SortSym
	default:
		return SortStr
	}
}

// IsNum reports whether the OID is a number.
func (o OID) IsNum() bool { return o.h == numTag || uint64(o.n) > wordStr }

// Rat returns the numeric value of the OID. It panics unless IsNum.
func (o OID) Rat() Rat {
	switch {
	case o.h == numTag:
		return Rat{n: o.n, d: 1}
	case o.h == ratTag && uint64(o.n) > wordStr:
		return Rat{n: o.n >> 32, d: o.n & (1<<32 - 1)}
	case o.n == wordBigRat:
		text := o.h.Value()
		slash := strings.IndexByte(text, '/')
		num, _ := strconv.ParseInt(text[:slash], 10, 64)
		den, _ := strconv.ParseInt(text[slash+1:], 10, 64)
		return Rat{n: num, d: den}
	}
	panic("term: Rat on non-numeric OID " + o.String())
}

// Name returns the symbol name or string payload. It panics on numbers.
func (o OID) Name() string {
	if o.IsNum() {
		panic("term: Name on numeric OID " + o.String())
	}
	return interned(o.h)
}

// String renders the OID in the concrete syntax of the language.
func (o OID) String() string {
	if o.Sort() == SortSym {
		return interned(o.h) // a symbol is its name
	}
	var b [48]byte
	return string(o.AppendTo(b[:0]))
}

// AppendTo appends the rendering String returns to dst: rendering into a
// buffer with room allocates nothing.
func (o OID) AppendTo(dst []byte) []byte {
	switch o.Sort() {
	case SortNum:
		return o.Rat().AppendTo(dst)
	case SortStr:
		return strconv.AppendQuote(dst, o.Name())
	default:
		return append(dst, o.Name()...)
	}
}

// Compare orders OIDs totally: numbers first (by value), then symbols, then
// strings (both lexicographically). The order is used only for deterministic
// output, never by the semantics.
func (o OID) Compare(p OID) int {
	if o == p {
		return 0
	}
	if o.h == numTag && p.h == numTag {
		return cmp.Compare(o.n, p.n)
	}
	so, sp := o.Sort(), p.Sort()
	if so != sp {
		if sortRank(so) < sortRank(sp) {
			return -1
		}
		return 1
	}
	if so == SortNum {
		return o.Rat().Compare(p.Rat())
	}
	return strings.Compare(o.Name(), p.Name())
}

// sortRank orders the sorts for Compare: numbers, then symbols, then
// strings.
func sortRank(s Sort) int {
	switch s {
	case SortNum:
		return 0
	case SortSym:
		return 1
	default:
		return 2
	}
}
