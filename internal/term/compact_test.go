package term

import (
	"math"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// TestCompactLayoutGuard pins the sizes the allocation figures of a bulk
// apply rest on: states, the fired-update log, delta buckets, the trace and
// every map keyed by a VID are arrays of these. A field added to OID or Args
// shows here before it shows in a benchmark.
func TestCompactLayoutGuard(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"OID", unsafe.Sizeof(OID{}), 24},
		{"Args", unsafe.Sizeof(Args{}), 8},
		{"GVID", unsafe.Sizeof(GVID{}), 40},
		{"MethodKey", unsafe.Sizeof(MethodKey{}), 24},
		{"Fact", unsafe.Sizeof(Fact{}), 88},
	} {
		if c.got > c.want {
			t.Errorf("unsafe.Sizeof(%s) = %d, want ≤ %d", c.name, c.got, c.want)
		}
	}
}

// TestCompactValueSemantics: an OID or an argument tuple is equal to another
// exactly when it denotes the same value, however the value was spelled and
// wherever its bytes live.
func TestCompactValueSemantics(t *testing.T) {
	for _, s := range []string{"henry", "", "ä→b", "a b"} {
		if Sym(s) != Sym(strings.Clone(s)) {
			t.Errorf("Sym(%q) != Sym of a copy", s)
		}
		if Str(s) != Str(strings.Clone(s)) {
			t.Errorf("Str(%q) != Str of a copy", s)
		}
		if Str(s) == Sym(s) {
			t.Errorf("Str(%q) == Sym(%q)", s, s)
		}
		if Sym(s).Name() != s || Str(s).Name() != s {
			t.Errorf("Name does not return %q", s)
		}
	}
	var zero OID
	if Sym("") != zero || !Sym("").IsZero() || Str("").IsZero() || Int(0).IsZero() {
		t.Errorf("the zero OID is not exactly the empty symbol")
	}
	if zero.Name() != "" || zero.String() != "" || zero.Sort() != SortSym || zero.IsNum() {
		t.Errorf("zero OID: Name %q, String %q, Sort %v", zero.Name(), zero.String(), zero.Sort())
	}
	if Int(3) != Num(6, 2) || Int(3) != FromRat(MakeRat(-9, -3)) || Int(3) != FromRat(RatInt(3)) {
		t.Errorf("3, 6/2 and -9/-3 are not one OID")
	}
	if FromRat(Rat{}) != Int(0) || Num(0, 7) != Int(0) {
		t.Errorf("zero has more than one representation")
	}
	if Int(1) == Sym("1") || Int(0) == zero || Int(-1) == Str("") {
		t.Errorf("a number equals a symbol or a string")
	}
	if r := Num(-7, 3).Rat(); r.Num() != -7 || r.Den() != 3 {
		t.Errorf("Num(-7, 3).Rat() = %v", r)
	}

	tuple := []OID{Sym("a"), Str("ä"), Num(-1, 3)}
	copied := []OID{Sym(strings.Clone("a")), Str(strings.Clone("ä")), Num(2, -6)}
	if EncodeOIDs(tuple) != EncodeOIDs(copied) {
		t.Errorf("equal tuples encode to unequal Args")
	}
	if EncodeOIDs(nil) != NoArgs || EncodeArgs(nil) != NoArgs || !EncodeOIDs([]OID{}).Empty() {
		t.Errorf("the empty tuple is not NoArgs")
	}
	if EncodeArgs([]ObjTerm{Sym("a"), Str("ä"), Num(-1, 3)}) != EncodeOIDs(tuple) {
		t.Errorf("EncodeArgs and EncodeOIDs disagree")
	}

	byOID := map[OID]int{Sym("a"): 1, Str("a"): 2, Int(1): 3, zero: 4}
	if byOID[Sym(strings.Clone("a"))] != 1 || byOID[Str(strings.Clone("a"))] != 2 || byOID[Num(2, 2)] != 3 || byOID[Sym("")] != 4 {
		t.Errorf("OID map lookups by equal values miss: %v", byOID)
	}
	byFact := map[Fact]bool{{V: GV(Sym("o"), Mod), Method: "m", Args: EncodeOIDs(tuple), Result: Int(2)}: true}
	if !byFact[Fact{V: GV(Sym(strings.Clone("o")), Mod), Method: "m", Args: EncodeOIDs(copied), Result: Num(4, 2)}] {
		t.Errorf("Fact map lookup by an equal value misses")
	}
}

// TestArgsFirstAndLenDecodeInPlace: a partition build asks for the first
// argument of every application it lists; neither that nor counting builds
// the tuple.
func TestArgsFirstAndLenDecodeInPlace(t *testing.T) {
	for _, tuple := range [][]OID{
		{Sym("a"), Str("b c"), Num(-7, 3)},
		{Num(-7, 3), Sym("a"), Str("b c")},
		{Str("ä:1"), Int(4), Sym("a")},
	} {
		a := EncodeOIDs(tuple)
		if got, ok := a.First(); !ok || got != tuple[0] {
			t.Errorf("First of %s = %v, %v", a, got, ok)
		}
		if a.Len() != len(tuple) {
			t.Errorf("Len of %s = %d", a, a.Len())
		}
		if n := testing.AllocsPerRun(20, func() { a.First() }); n != 0 {
			t.Errorf("First of %s allocates %.0f times", a, n)
		}
		if n := testing.AllocsPerRun(20, func() { a.Len() }); n != 0 {
			t.Errorf("Len of %s allocates %.0f times", a, n)
		}
	}
	if _, ok := NoArgs.First(); ok || NoArgs.Len() != 0 {
		t.Errorf("NoArgs has a first argument")
	}
}

// refOID is the representation OID had before it was compacted — a sort, a
// string and a rational side by side — kept as the reference its order and
// its equality are held against.
type refOID struct {
	sort Sort
	sym  string
	num  Rat
}

func refOf(o OID) refOID {
	if o.IsNum() {
		return refOID{sort: SortNum, num: o.Rat()}
	}
	return refOID{sort: o.Sort(), sym: o.Name()}
}

func (o refOID) compare(p refOID) int {
	if o.sort != p.sort {
		if sortRank(o.sort) < sortRank(p.sort) {
			return -1
		}
		return 1
	}
	switch o.sort {
	case SortNum:
		return o.num.Compare(p.num)
	default:
		return strings.Compare(o.sym, p.sym)
	}
}

// fuzzOID builds an OID of any sort from fuzzer-chosen parts; ok is false
// for the magnitudes MakeRat rejects.
func fuzzOID(kind uint8, s string, n, d int64) (o OID, ok bool) {
	switch kind % 3 {
	case 0:
		return Sym(s), true
	case 1:
		return Str(s), true
	}
	if d == 0 {
		d = 1
	}
	if n == math.MinInt64 || d == math.MinInt64 {
		return OID{}, false
	}
	return Num(n, d), true
}

func FuzzOIDCompare(f *testing.F) {
	f.Add(uint8(0), "henry", int64(0), int64(0), uint8(0), "empl", int64(0), int64(0))
	f.Add(uint8(0), "", int64(0), int64(0), uint8(1), "", int64(0), int64(0))
	f.Add(uint8(1), "ä→b", int64(0), int64(0), uint8(1), "ä→a", int64(0), int64(0))
	f.Add(uint8(2), "", int64(-7), int64(3), uint8(2), "", int64(14), int64(-6))
	f.Add(uint8(2), "", int64(11), int64(10), uint8(2), "", int64(1), int64(1))
	f.Add(uint8(2), "", int64(0), int64(5), uint8(0), "0", int64(0), int64(0))
	f.Add(uint8(2), "", int64(math.MaxInt64), int64(1), uint8(2), "", int64(math.MaxInt64), int64(2))
	f.Add(uint8(1), "a", int64(0), int64(0), uint8(0), "a", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, ka uint8, sa string, na, da int64, kb uint8, sb string, nb, db int64) {
		a, okA := fuzzOID(ka, sa, na, da)
		b, okB := fuzzOID(kb, sb, nb, db)
		if !okA || !okB {
			t.Skip()
		}
		ra, rb := refOf(a), refOf(b)
		if got, want := a.Compare(b), ra.compare(rb); got != want {
			t.Fatalf("Compare(%v, %v) = %d, reference %d", a, b, got, want)
		}
		if a.Compare(b) != -b.Compare(a) {
			t.Fatalf("Compare(%v, %v) is not antisymmetric", a, b)
		}
		if (a == b) != (ra == rb) || (a == b) != (a.Compare(b) == 0) {
			t.Fatalf("%v == %v is %v, reference %v, Compare %d", a, b, a == b, ra == rb, a.Compare(b))
		}
		if a.String() != refString(ra) {
			t.Fatalf("String of %v: %q, reference %q", a, a.String(), refString(ra))
		}
	})
}

// refString is the old OID.String.
func refString(o refOID) string {
	switch o.sort {
	case SortNum:
		return o.num.String()
	case SortStr:
		return strconv.Quote(o.sym)
	default:
		return o.sym
	}
}

func FuzzArgsRoundTrip(f *testing.F) {
	f.Add(uint8(3), uint8(0), "a", int64(0), int64(0), uint8(1), "b c", int64(0), int64(0), uint8(2), "", int64(-7), int64(3))
	f.Add(uint8(1), uint8(1), "", int64(0), int64(0), uint8(0), "", int64(0), int64(0), uint8(0), "", int64(0), int64(0))
	f.Add(uint8(2), uint8(2), "", int64(11), int64(10), uint8(0), "ä→b", int64(0), int64(0), uint8(0), "", int64(0), int64(0))
	f.Add(uint8(3), uint8(1), "7:", int64(0), int64(0), uint8(1), "x:y", int64(0), int64(0), uint8(0), "s7", int64(0), int64(0))
	f.Add(uint8(0), uint8(0), "", int64(0), int64(0), uint8(0), "", int64(0), int64(0), uint8(0), "", int64(0), int64(0))
	f.Add(uint8(2), uint8(2), "", int64(-3), int64(1), uint8(2), "", int64(3), int64(-1), uint8(0), "", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, count uint8,
		k0 uint8, s0 string, n0, d0 int64,
		k1 uint8, s1 string, n1, d1 int64,
		k2 uint8, s2 string, n2, d2 int64) {
		var tuple []OID
		for i, p := range []struct {
			k    uint8
			s    string
			n, d int64
		}{{k0, s0, n0, d0}, {k1, s1, n1, d1}, {k2, s2, n2, d2}} {
			if i >= int(count%4) {
				break
			}
			o, ok := fuzzOID(p.k, p.s, p.n, p.d)
			if !ok {
				t.Skip()
			}
			tuple = append(tuple, o)
		}
		a := EncodeOIDs(tuple)
		dec := a.Decode()
		if len(dec) != len(tuple) || a.Len() != len(tuple) || a.Empty() != (len(tuple) == 0) {
			t.Fatalf("%v encodes to %d arguments, Len %d, Empty %v", tuple, len(dec), a.Len(), a.Empty())
		}
		for i := range tuple {
			if dec[i] != tuple[i] {
				t.Fatalf("%v decodes to %v", tuple, dec)
			}
		}
		if first, ok := a.First(); ok != (len(tuple) > 0) || ok && first != tuple[0] {
			t.Fatalf("First of %v = %v, %v", tuple, first, ok)
		}
		if EncodeOIDs(dec) != a || a.Compare(EncodeOIDs(dec)) != 0 || a.CompareEncoded(EncodeOIDs(dec)) != 0 {
			t.Fatalf("re-encoding %v gives a different tuple", dec)
		}
		if longer := EncodeOIDs(append(dec, Sym("x"))); longer == a || a.Compare(longer) != -1 {
			t.Fatalf("%v and its extension compare %d", tuple, a.Compare(longer))
		}
	})
}
