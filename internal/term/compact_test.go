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
		{"OID", unsafe.Sizeof(OID{}), 16},
		{"Args", unsafe.Sizeof(Args{}), 8},
		{"GVID", unsafe.Sizeof(GVID{}), 32},
		{"MethodKey", unsafe.Sizeof(MethodKey{}), 24},
		{"Fact", unsafe.Sizeof(Fact{}), 80},
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
	if Sym("") != zero || Str("") == zero || Int(0) == zero {
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
	if EncodeOIDs(nil) != NoArgs || !EncodeOIDs([]OID{}).Empty() {
		t.Errorf("the empty tuple is not NoArgs")
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

// sinkOID and sinkInt keep the results of the allocation probes live.
var (
	sinkOID OID
	sinkInt int
)

// TestInlineNumbersAllocateNothing: an integer, and a fraction whose
// numerator fits an int32 and denominator a uint32, live in the OID itself,
// so making one, reading it back, sorting it and ordering it intern nothing
// — S' = S + 1 and S' = S * 1.1 mint new numbers on every apply.
func TestInlineNumbersAllocateNothing(t *testing.T) {
	for _, r := range []Rat{
		RatInt(0), RatInt(1), RatInt(2), RatInt(-1), RatInt(math.MaxInt64), RatInt(math.MinInt64),
		MakeRat(11, 10), MakeRat(-7, 3), MakeRat(math.MaxInt32, math.MaxUint32),
		MakeRat(math.MinInt32, math.MaxUint32), MakeRat(1, 2),
	} {
		o := FromRat(r)
		if got := o.Rat(); got != r || Num(r.Num(), r.Den()) != o || !o.IsNum() || o.Sort() != SortNum {
			t.Errorf("FromRat(%v) reads back as %v", r, got)
		}
		probes := map[string]func(){
			"FromRat": func() { sinkOID = FromRat(r) },
			"Num":     func() { sinkOID = Num(r.Num(), r.Den()) },
			"Rat":     func() { sinkOID = FromRat(o.Rat()) },
			"Sort":    func() { sinkInt = int(o.Sort()) },
			"Compare": func() { sinkInt = o.Compare(Int(3)) + o.Compare(Num(1, 3)) },
		}
		if r.IsInt() {
			probes["Int"] = func() { sinkOID = Int(r.Int()) }
		}
		for name, f := range probes {
			if n := testing.AllocsPerRun(20, f); n != 0 {
				t.Errorf("%s of %v allocates %.0f times", name, r, n)
			}
		}
	}
}

// TestWideRationals: a fraction too wide to pack interns its canonical
// text, and is still one OID however it is spelled, reads back as itself,
// orders among the other numbers by value and is no symbol or string of
// the same text.
func TestWideRationals(t *testing.T) {
	for _, c := range []struct {
		num, den, num2, den2 int64
		text                 string
	}{
		{1, 1 << 32, 2, 1 << 33, "1/4294967296"},
		{1 << 31, 3, 1 << 32, 6, "2147483648/3"},
		{-(1 << 31) - 2, 3, (1 << 31) + 2, -3, "-2147483650/3"},
		{math.MaxInt64, 2, -math.MaxInt64, -2, "9223372036854775807/2"},
		{math.MinInt64 + 1, math.MaxInt64 - 1, math.MaxInt64, -(math.MaxInt64 - 1), "-9223372036854775807/9223372036854775806"},
	} {
		o := Num(c.num, c.den)
		if o != Num(c.num2, c.den2) || o != FromRat(o.Rat()) || o.Rat() != MakeRat(c.num, c.den) {
			t.Errorf("%d/%d: %v, spelled %d/%d %v, read back %v", c.num, c.den, o, c.num2, c.den2, Num(c.num2, c.den2), FromRat(o.Rat()))
		}
		if !o.IsNum() || o.Sort() != SortNum || o == Sym(c.text) || o == Str(c.text) || Sym(c.text).IsNum() || Str(c.text).IsNum() {
			t.Errorf("%s is not a number apart from the name %q", o, c.text)
		}
		r := o.Rat()
		below, above := Int(r.Num()/r.Den()), Int(r.Num()/r.Den()+1) // both sides of the truncation
		if r.Num() < 0 {
			below, above = Int(r.Num()/r.Den()-1), Int(r.Num()/r.Den())
		}
		if o.Compare(below) != 1 || o.Compare(above) != -1 || below.Compare(o) != -1 || o.Compare(Sym("")) != -1 {
			t.Errorf("%s orders wrongly against %s and %s", o, below, above)
		}
	}
	for _, name := range []string{"", "r", "0", "1", "2"} {
		if Sym(name).IsNum() || Str(name).IsNum() || Sym(name) == Int(0) || Str(name) == Int(1) {
			t.Errorf("the name %q is taken for a number", name)
		}
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
	// The edges of the encoding: ±2³¹ and a denominator of 2³² just past
	// the packed fractions, the ends of int64, the words 0, 1 and 2 that
	// tag a name, and names that spell a number or the packed fractions' tag.
	f.Add(uint8(2), "", int64(1<<31), int64(3), uint8(2), "", int64(-1<<31), int64(3))
	f.Add(uint8(2), "", int64(1<<31-1), int64(1<<32-1), uint8(2), "", int64(-1<<31-1), int64(1<<32-1))
	f.Add(uint8(2), "", int64(1), int64(1<<32), uint8(2), "", int64(1), int64(1<<32-1))
	f.Add(uint8(2), "", int64(math.MaxInt64), int64(3), uint8(2), "", int64(math.MinInt64+1), int64(1))
	f.Add(uint8(2), "", int64(math.MinInt64+1), int64(math.MaxInt64), uint8(2), "", int64(-1), int64(1))
	f.Add(uint8(2), "", int64(0), int64(1), uint8(0), "", int64(0), int64(0))
	f.Add(uint8(2), "", int64(1), int64(1), uint8(1), "", int64(0), int64(0))
	f.Add(uint8(2), "", int64(2), int64(1), uint8(0), "2", int64(0), int64(0))
	f.Add(uint8(2), "", int64(1<<31), int64(3), uint8(0), "2147483648/3", int64(0), int64(0))
	f.Add(uint8(2), "", int64(1), int64(2), uint8(1), "r", int64(0), int64(0))
	f.Fuzz(func(t *testing.T, ka uint8, sa string, na, da int64, kb uint8, sb string, nb, db int64) {
		a, okA := fuzzOID(ka, sa, na, da)
		b, okB := fuzzOID(kb, sb, nb, db)
		if !okA || !okB {
			t.Skip()
		}
		for _, o := range []OID{a, b} {
			if o.IsNum() && FromRat(o.Rat()) != o {
				t.Fatalf("%v reads back as %v", o, FromRat(o.Rat()))
			}
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
	f.Add(uint8(3), uint8(2), "", int64(1<<31), int64(3), uint8(2), "", int64(1), int64(1<<32), uint8(0), "2147483648/3", int64(0), int64(0))
	f.Add(uint8(3), uint8(2), "", int64(math.MaxInt64), int64(1), uint8(2), "", int64(math.MinInt64+1), int64(2), uint8(2), "", int64(-1<<31), int64(1<<32-1))
	f.Add(uint8(3), uint8(2), "", int64(0), int64(1), uint8(2), "", int64(1), int64(1), uint8(2), "", int64(2), int64(1))
	f.Add(uint8(3), uint8(0), "", int64(0), int64(0), uint8(1), "", int64(0), int64(0), uint8(0), "r", int64(0), int64(0))
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
			if o.IsNum() && FromRat(o.Rat()) != o {
				t.Fatalf("%v reads back as %v", o, FromRat(o.Rat()))
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
