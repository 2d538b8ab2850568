package term

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestRatBasics(t *testing.T) {
	cases := []struct {
		name string
		got  Rat
		want string
	}{
		{"int", RatInt(42), "42"},
		{"neg int", RatInt(-7), "-7"},
		{"zero", RatInt(0), "0"},
		{"half", MakeRat(1, 2), "0.5"},
		{"tenth", MakeRat(1, 10), "0.1"},
		{"eleven tenths", MakeRat(11, 10), "1.1"},
		{"reduced", MakeRat(4, 8), "0.5"},
		{"neg den", MakeRat(1, -2), "-0.5"},
		{"third", MakeRat(1, 3), "1r3"},
		{"neg third", MakeRat(-2, 6), "-1r3"},
		{"25 hundredths", MakeRat(25, 100), "0.25"},
		{"trailing zeros trimmed", MakeRat(1500, 1000), "1.5"},
	}
	for _, c := range cases {
		if got := c.got.String(); got != c.want {
			t.Errorf("%s: String() = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestRatArithmetic(t *testing.T) {
	cases := []struct {
		got  Rat
		want Rat
	}{
		{RatInt(4000).Mul(MakeRat(11, 10)).Add(RatInt(200)), RatInt(4600)},
		{RatInt(250).Mul(MakeRat(11, 10)), RatInt(275)},
		{MakeRat(1, 3).Add(MakeRat(1, 6)), MakeRat(1, 2)},
		{MakeRat(1, 3).Sub(MakeRat(1, 3)), RatInt(0)},
		{MakeRat(3, 4).Mul(MakeRat(4, 3)), RatInt(1)},
		{RatInt(-5).Neg(), RatInt(5)},
		{MakeRat(7, 2).Sub(RatInt(4)), MakeRat(-1, 2)},
	}
	for i, c := range cases {
		if c.got != c.want {
			t.Errorf("case %d: got %s, want %s", i, c.got, c.want)
		}
	}
	q, ok := RatInt(7).Div(RatInt(2))
	if !ok || q != MakeRat(7, 2) {
		t.Errorf("7/2 = %v, %v", q, ok)
	}
	if _, ok := RatInt(1).Div(RatInt(0)); ok {
		t.Errorf("division by zero succeeded")
	}
}

func TestRatZeroValueBehavesAsZero(t *testing.T) {
	var z Rat
	if z.String() != "0" || !z.IsInt() || z.Int() != 0 {
		t.Errorf("zero Rat misbehaves: %q", z.String())
	}
	if got := z.Add(RatInt(3)); got != RatInt(3) {
		t.Errorf("0 + 3 = %s", got)
	}
	if z.Compare(RatInt(0)) != 0 {
		t.Errorf("zero Rat != 0")
	}
}

func TestRatCompare(t *testing.T) {
	cases := []struct {
		a, b Rat
		want int
	}{
		{RatInt(1), RatInt(2), -1},
		{RatInt(2), RatInt(1), 1},
		{MakeRat(1, 3), MakeRat(1, 3), 0},
		{MakeRat(1, 3), MakeRat(1, 2), -1},
		{RatInt(-1), RatInt(1), -1},
		{MakeRat(-1, 2), MakeRat(-1, 3), -1},
		// Values whose cross products overflow int64: the comparison must
		// still be exact (it runs in 128 bits).
		{MakeRat(math.MaxInt64, 2), MakeRat(math.MaxInt64-1, 2), 1},
		{MakeRat(math.MaxInt64, 3), MakeRat(math.MaxInt64, 2), -1},
		{MakeRat(-math.MaxInt64, 2), MakeRat(math.MaxInt64, 2), -1},
	}
	for i, c := range cases {
		if got := c.a.Compare(c.b); got != c.want {
			t.Errorf("case %d: Compare(%s, %s) = %d, want %d", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Compare(c.a); got != -c.want {
			t.Errorf("case %d: Compare(%s, %s) = %d, want %d", i, c.b, c.a, got, -c.want)
		}
	}
}

func TestParseRat(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
	}{
		{"0", RatInt(0)},
		{"250", RatInt(250)},
		{"-3", RatInt(-3)},
		{"1.1", MakeRat(11, 10)},
		{"275.5", MakeRat(551, 2)},
		{"-0.5", MakeRat(-1, 2)},
		{"0.25", MakeRat(1, 4)},
		{"10.00", RatInt(10)},
	}
	for _, c := range cases {
		got, err := ParseRat(c.in)
		if err != nil {
			t.Errorf("ParseRat(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseRat(%q) = %s, want %s", c.in, got, c.want)
		}
	}
	for _, bad := range []string{"", "abc", "1.", "1.2.3", "1.-2", ".", "--2"} {
		if _, err := ParseRat(bad); err == nil {
			t.Errorf("ParseRat(%q) succeeded", bad)
		}
	}
}

func TestParseRatStringRoundTrip(t *testing.T) {
	// String output of any rational with power-of-ten-compatible
	// denominator parses back to the same value.
	f := func(n int64, dExp uint8) bool {
		den := int64(1)
		for i := uint8(0); i < dExp%6; i++ {
			den *= 10
		}
		n = n % 1_000_000_000
		r := MakeRat(n, den)
		back, err := ParseRat(r.String())
		return err == nil && back == r
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRatFieldLaws(t *testing.T) {
	// Commutativity, associativity and distributivity on a bounded domain
	// (values stay well inside int64).
	small := func(a int32, dExp uint8) Rat {
		den := int64(1)
		for i := uint8(0); i < dExp%3; i++ {
			den *= 10
		}
		return MakeRat(int64(a%1000), den)
	}
	comm := func(a1 int32, d1 uint8, a2 int32, d2 uint8) bool {
		x, y := small(a1, d1), small(a2, d2)
		return x.Add(y) == y.Add(x) && x.Mul(y) == y.Mul(x)
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Errorf("commutativity: %v", err)
	}
	assoc := func(a1 int32, d1 uint8, a2 int32, d2 uint8, a3 int32, d3 uint8) bool {
		x, y, z := small(a1, d1), small(a2, d2), small(a3, d3)
		return x.Add(y).Add(z) == x.Add(y.Add(z)) && x.Mul(y).Mul(z) == x.Mul(y.Mul(z))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Errorf("associativity: %v", err)
	}
	distr := func(a1 int32, d1 uint8, a2 int32, d2 uint8, a3 int32, d3 uint8) bool {
		x, y, z := small(a1, d1), small(a2, d2), small(a3, d3)
		return x.Mul(y.Add(z)) == x.Mul(y).Add(x.Mul(z))
	}
	if err := quick.Check(distr, nil); err != nil {
		t.Errorf("distributivity: %v", err)
	}
	subInverse := func(a1 int32, d1 uint8, a2 int32, d2 uint8) bool {
		x, y := small(a1, d1), small(a2, d2)
		return x.Sub(y).Add(y) == x
	}
	if err := quick.Check(subInverse, nil); err != nil {
		t.Errorf("sub/add inverse: %v", err)
	}
}

func TestRatOverflowDetected(t *testing.T) {
	check := func(name string, fn func()) {
		t.Helper()
		var err error
		func() {
			defer RecoverOverflow(&err)
			fn()
		}()
		if !errors.Is(err, ErrRatOverflow) {
			t.Errorf("%s: err = %v, want ErrRatOverflow", name, err)
		}
	}
	big := RatInt(math.MaxInt64 / 2)
	check("add", func() { big.Add(big).Add(big) })
	check("mul", func() { big.Mul(RatInt(4)) })
	check("deep denominator", func() {
		r := MakeRat(11, 10)
		for i := 0; i < 64; i++ {
			r = r.Mul(MakeRat(11, 10)).Add(RatInt(1))
		}
	})
	check("div by min", func() { RatInt(1).Div(RatInt(math.MinInt64)) })
}

func TestRecoverOverflowRepanicsOthers(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Errorf("foreign panic was swallowed")
		}
	}()
	var err error
	defer RecoverOverflow(&err)
	panic("boom")
}

// ratEdges are the int64 values at which rational arithmetic breaks when
// it breaks: 0, ±1, the ends of the range, and the magnitudes whose
// products or squares just cross it.
var ratEdges = []int64{0, 1, -1, math.MaxInt64, -math.MaxInt64, math.MinInt64, 1 << 62, 3_037_000_500, -3_037_000_500}

// randInt64 draws an edge value a quarter of the time, else a random value
// of a random bit length, so that every magnitude is about as likely.
func randInt64(rng *rand.Rand) int64 {
	if rng.IntN(4) == 0 {
		return ratEdges[rng.IntN(len(ratEdges))]
	}
	v := int64(rng.Uint64() >> rng.IntN(64))
	if rng.IntN(2) == 0 {
		v = -v
	}
	return v
}

// randRat draws a rational from randInt64's numerators and denominators,
// and its exact value as a big.Rat; it skips fractions MakeRat refuses
// (d = -2⁶³ with n odd: the denominator 2⁶³ is not an int64).
func randRat(t *testing.T, rng *rand.Rand) (Rat, *big.Rat) {
	for {
		n, d := randInt64(rng), randInt64(rng)
		if d == 0 {
			continue
		}
		want := new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
		r, err := tryRat(func() Rat { return MakeRat(n, d) })
		if err != nil {
			if fitsInt64(want) {
				t.Fatalf("MakeRat(%d, %d) refused %s, which fits: %v", n, d, want, err)
			}
			continue
		}
		return r, want
	}
}

// tryRat runs an operation, reporting overflow as ErrRatOverflow.
func tryRat(op func() Rat) (r Rat, err error) {
	defer RecoverOverflow(&err)
	return op(), nil
}

func fitsInt64(x *big.Rat) bool { return x.Num().IsInt64() && x.Denom().IsInt64() }

// sameRat reports whether r is exactly x, in lowest terms (big.Rat keeps
// its values reduced with a positive denominator, as Rat must).
func sameRat(r Rat, x *big.Rat) bool {
	return x.Num().IsInt64() && x.Denom().IsInt64() && r.Num() == x.Num().Int64() && r.Den() == x.Denom().Int64()
}

// TestRatAgreesWithMathBig holds Rat against math/big on 10⁵ random pairs,
// edge values among them: MakeRat, Neg, Add, Sub, Mul, Div, Compare, IsInt
// and Int equal big.Rat's results, every result's rendering parses back to
// it, and a result is refused with ErrRatOverflow, never wrapped, exactly
// when big.Rat cannot reduce it into int64 over int64: a cross product that
// overflows on the way to a result that fits is no refusal.
func TestRatAgreesWithMathBig(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const pairs = 100_000
	spurious := map[string]int{}
	check := func(name string, a, b Rat, got Rat, err error, want *big.Rat) {
		t.Helper()
		switch {
		case err != nil && !errors.Is(err, ErrRatOverflow):
			t.Fatalf("%s(%v, %v): %v", name, a, b, err)
		case err != nil && fitsInt64(want):
			spurious[name]++
		case err == nil && !sameRat(got, want):
			t.Fatalf("%s(%v, %v) = %d/%d, want %s", name, a, b, got.Num(), got.Den(), want)
		case err == nil:
			if back, err := ParseRat(got.String()); err != nil || back != got {
				t.Fatalf("%s(%v, %v) = %d/%d renders as %s, which parses to %v, %v", name, a, b, got.Num(), got.Den(), got, back, err)
			}
		}
	}
	for range pairs {
		a, x := randRat(t, rng)
		b, y := randRat(t, rng)
		r, err := tryRat(a.Neg)
		check("Neg", a, Rat{}, r, err, new(big.Rat).Neg(x))
		r, err = tryRat(func() Rat { return a.Add(b) })
		check("Add", a, b, r, err, new(big.Rat).Add(x, y))
		r, err = tryRat(func() Rat { return a.Sub(b) })
		check("Sub", a, b, r, err, new(big.Rat).Sub(x, y))
		r, err = tryRat(func() Rat { return a.Mul(b) })
		check("Mul", a, b, r, err, new(big.Rat).Mul(x, y))
		if y.Sign() == 0 {
			if _, ok := a.Div(b); ok {
				t.Fatalf("Div(%v, 0) succeeded", a)
			}
		} else {
			r, err = tryRat(func() Rat { q, _ := a.Div(b); return q })
			check("Div", a, b, r, err, new(big.Rat).Quo(x, y))
		}
		if got, want := a.Compare(b), x.Cmp(y); got != want {
			t.Fatalf("Compare(%v, %v) = %d, want %d", a, b, got, want)
		}
		if a.IsInt() != x.IsInt() || a.IsInt() && a.Int() != x.Num().Int64() {
			t.Fatalf("IsInt/Int of %v disagree with %s", a, x)
		}
	}
	for _, name := range []string{"Neg", "Add", "Sub", "Mul", "Div"} {
		if spurious[name] != 0 {
			t.Errorf("%s: %d of %d refusals of a result that fits", name, spurious[name], pairs)
		}
	}
}

func TestRationalLiteralRoundTrip(t *testing.T) {
	cases := []Rat{MakeRat(652, 7), MakeRat(-1, 3), MakeRat(22, 7)}
	for _, r := range cases {
		back, err := ParseRat(r.String())
		if err != nil || back != r {
			t.Errorf("round trip %s: %v, %v", r, back, err)
		}
	}
	if _, err := ParseRat("1r0"); err == nil {
		t.Errorf("zero denominator accepted")
	}
	if _, err := ParseRat("r3"); err == nil {
		t.Errorf("missing numerator accepted")
	}
}

// stringBeforeAppend is how Rat.String rendered before it was defined
// through AppendTo: the reference the append form must reproduce.
func stringBeforeAppend(r Rat) string {
	r = r.norm()
	if r.d == 1 {
		return strconv.FormatInt(r.n, 10)
	}
	den, pow, digits := r.d, int64(1), 0
	for den > 1 && digits < 18 {
		switch {
		case den%10 == 0:
			den /= 10
		case den%5 == 0:
			den /= 5
		case den%2 == 0:
			den /= 2
		default:
			return strconv.FormatInt(r.n, 10) + "r" + strconv.FormatInt(r.d, 10)
		}
		pow *= 10
		digits++
	}
	if den != 1 {
		return strconv.FormatInt(r.n, 10) + "r" + strconv.FormatInt(r.d, 10)
	}
	scaled := r.n * (pow / r.d)
	neg := scaled < 0
	if neg {
		scaled = -scaled
	}
	s := strconv.FormatInt(scaled, 10)
	for len(s) <= digits {
		s = "0" + s
	}
	out := strings.TrimSuffix(strings.TrimRight(s[:len(s)-digits]+"."+s[len(s)-digits:], "0"), ".")
	if neg {
		out = "-" + out
	}
	return out
}

// Rat.AppendTo, and so String, renders every rational as String did when
// it built its result from strings: integers, decimals with leading and
// trailing zeros, the NrD form, and the extremes of int64.
func TestRatAppendToMatchesString(t *testing.T) {
	rats := []Rat{{}, RatInt(0), RatInt(math.MaxInt64), RatInt(math.MinInt64 + 1),
		MakeRat(1, 2), MakeRat(-1, 2), MakeRat(1, 1<<18), MakeRat(3, 1000), MakeRat(-7, 3125),
		MakeRat(123456789, 1000), MakeRat(math.MaxInt64, 1<<20), MakeRat(1, 3), MakeRat(-652, 7),
		MakeRat(math.MaxInt64, math.MaxInt64-1), MakeRat(1, 1<<62)}
	rng := rand.New(rand.NewPCG(4, 6))
	for range 5000 {
		num := rng.Int64N(2_000_001) - 1_000_000
		den := []int64{1, 2, 4, 5, 8, 10, 16, 20, 25, 40, 125, 1000, 3, 7, 12, 1 << 20}[rng.IntN(16)] * (rng.Int64N(3) + 1)
		rats = append(rats, MakeRat(num, den))
	}
	for _, r := range rats {
		want := stringBeforeAppend(r)
		if got := r.String(); got != want {
			t.Errorf("%d/%d: String() = %q, want %q", r.Num(), r.Den(), got, want)
		}
		if got := string(r.AppendTo([]byte("x="))); got != "x="+want {
			t.Errorf("%d/%d: AppendTo = %q, want %q", r.Num(), r.Den(), got, "x="+want)
		}
		if got := FromRat(r).String(); got != want {
			t.Errorf("%d/%d: OID String() = %q, want %q", r.Num(), r.Den(), got, want)
		}
	}
}

// Rendering a number into a buffer with room allocates nothing: a query's
// comparator and the server's response writer render every numeric answer.
func TestAppendToAllocatesNothing(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, o := range []OID{Int(4200), Int(-7), Num(9, 2), Num(-1, 3), Num(123456789, 1000), Sym("bob"), Str(`a "b"`)} {
		if n := testing.AllocsPerRun(100, func() { buf = o.AppendTo(buf[:0]) }); n != 0 {
			t.Errorf("%s.AppendTo allocates %.0f times, want 0", o, n)
		}
	}
}
