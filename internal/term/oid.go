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
//   - An OID is three words: an interned name (unique.Handle[string]) and
//     the two int64 of a rational, of which the denominator doubles as the
//     sort tag (see OID). Equality is still equality of values, because each
//     value has one representation: rationals are kept in lowest terms with a
//     positive denominator, and two handles are equal exactly when the
//     strings they were made from are. An argument tuple (Args) is the
//     handle of its canonical encoding, one word. States, fired-update logs,
//     delta buckets, traces and every map keyed by a VID are arrays of these
//     values, so their size is what a bulk apply allocates per touched fact.
//     Numbers stay inline: an update such as S' = S + 1 mints new ones on
//     every apply, and they need no table.
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
// The three sorts share three words. d says which is in use: d > 0 is the
// number n/d in lowest terms, d = 0 a symbol and d = symStr a string, both
// named by sym (the zero handle names ""). Every constructor produces one
// representation per value, so == on OIDs is equality of values.
type OID struct {
	sym  unique.Handle[string] // payload for SortSym and SortStr
	n, d int64                 // payload for SortNum; d also tags the sort
}

// symStr is the d of a string-valued OID.
const symStr = -1

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
func Sym(name string) OID { return OID{sym: intern(name)} }

// Str returns the string-valued OID with the given contents.
func Str(s string) OID { return OID{sym: intern(s), d: symStr} }

// Int returns the numeric OID for the given integer.
func Int(i int64) OID { return OID{n: i, d: 1} }

// Num returns the numeric OID for the rational num/den. It panics if den is
// zero.
func Num(num, den int64) OID { return FromRat(MakeRat(num, den)) }

// FromRat returns the numeric OID holding r.
func FromRat(r Rat) OID { return OID{n: r.Num(), d: r.Den()} }

// Sort reports the sort of the OID.
func (o OID) Sort() Sort {
	switch {
	case o.d > 0:
		return SortNum
	case o.d == 0:
		return SortSym
	default:
		return SortStr
	}
}

// IsNum reports whether the OID is a number.
func (o OID) IsNum() bool { return o.d > 0 }

// Rat returns the numeric value of the OID. It panics unless IsNum.
func (o OID) Rat() Rat {
	if o.d <= 0 {
		panic("term: Rat on non-numeric OID " + o.String())
	}
	return Rat{n: o.n, d: o.d}
}

// Name returns the symbol name or string payload. It panics on numbers.
func (o OID) Name() string {
	if o.d > 0 {
		panic("term: Name on numeric OID " + o.String())
	}
	return interned(o.sym)
}

// String renders the OID in the concrete syntax of the language.
func (o OID) String() string {
	if o.d == 0 {
		return interned(o.sym) // a symbol is its name
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
