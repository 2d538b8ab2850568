package term

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"strconv"
	"strings"
)

// ErrRatOverflow reports rational arithmetic exceeding int64 precision.
// The arithmetic functions panic with an internal sentinel on overflow;
// entry points that must return errors instead use RecoverOverflow.
// Silent wraparound would corrupt query results, so overflow is always
// detected.
var ErrRatOverflow = errors.New("term: rational arithmetic overflow (exceeds int64 precision)")

// ratOverflowPanic is the panic payload used for overflow unwinding.
type ratOverflowPanic struct{}

// RecoverOverflow converts an in-flight rational-overflow panic into
// ErrRatOverflow assigned to *err. Use as
//
//	defer term.RecoverOverflow(&err)
//
// in functions that evaluate arithmetic on untrusted inputs. Other panics
// are re-raised.
func RecoverOverflow(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(ratOverflowPanic); ok {
			*err = ErrRatOverflow
			return
		}
		panic(r)
	}
}

// mulChecked multiplies with overflow detection.
func mulChecked(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	hi, lo := bits.Mul64(magnitude(a), magnitude(b))
	neg := (a < 0) != (b < 0)
	if hi != 0 || (neg && lo > 1<<63) || (!neg && lo > 1<<63-1) {
		panic(ratOverflowPanic{})
	}
	if neg {
		return -int64(lo)
	}
	return int64(lo)
}

// addChecked adds with overflow detection.
func addChecked(a, b int64) int64 {
	c := a + b
	if (a > 0 && b > 0 && c < 0) || (a < 0 && b < 0 && c >= 0) {
		panic(ratOverflowPanic{})
	}
	return c
}

func magnitude(a int64) uint64 {
	if a < 0 {
		return uint64(-(a + 1)) + 1 // handles MinInt64
	}
	return uint64(a)
}

// Rat is an exact rational number with int64 numerator and positive int64
// denominator, always kept in lowest terms. It exists so that the arithmetic
// of update programs is exact: the paper's example computes S*1.1 + 200 and
// expects 4600, which binary floating point cannot deliver.
//
// Rat is a comparable value type; two equal rationals compare == in Go.
type Rat struct {
	n int64 // numerator, carries the sign
	d int64 // denominator, always > 0; zero value normalised lazily
}

// RatInt returns the rational for an integer.
func RatInt(i int64) Rat { return Rat{n: i, d: 1} }

// MakeRat returns n/d in lowest terms. It panics if d is zero, and with
// the overflow sentinel if the reduced fraction is not representable.
func MakeRat(n, d int64) Rat {
	if d > 0 && n != math.MinInt64 {
		if g := gcd64(n, d); g > 1 {
			n, d = n/g, d/g
		}
		return Rat{n: n, d: d}
	}
	if d == 0 {
		panic("term: rational with zero denominator")
	}
	// A negative denominator or a numerator of -2⁶³: reduce the magnitudes,
	// which include 2⁶³, then sign.
	un, ud := magnitude(n), magnitude(d)
	g := gcdMag(un, ud)
	un, ud = un/g, ud/g
	neg := (n < 0) != (d < 0)
	if ud > math.MaxInt64 || un > math.MaxInt64 && !neg {
		panic(ratOverflowPanic{})
	}
	if neg {
		return Rat{n: int64(-un), d: int64(ud)} // -2⁶³ wraps to MinInt64, as it should
	}
	return Rat{n: int64(un), d: int64(ud)}
}

// ParseRat parses an integer literal ("250", "-3"), a decimal literal
// ("1.1"), or an exact rational literal in the NrD form ("652r7" = 652/7 —
// the printable form for denominators that no decimal can express).
func ParseRat(s string) (_ Rat, err error) {
	defer RecoverOverflow(&err)
	if r := strings.IndexByte(s, 'r'); r > 0 {
		num, err1 := strconv.ParseInt(s[:r], 10, 64)
		den, err2 := strconv.ParseInt(s[r+1:], 10, 64)
		if err1 != nil || err2 != nil || den <= 0 {
			return Rat{}, fmt.Errorf("term: bad rational literal %q", s)
		}
		return MakeRat(num, den), nil
	}
	dot := strings.IndexByte(s, '.')
	if dot < 0 {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("term: bad number %q: %w", s, err)
		}
		return RatInt(n), nil
	}
	intPart, fracPart := s[:dot], s[dot+1:]
	if fracPart == "" || strings.ContainsAny(fracPart, "+-") {
		return Rat{}, fmt.Errorf("term: bad number %q", s)
	}
	neg := strings.HasPrefix(intPart, "-")
	whole := int64(0)
	if intPart != "" && intPart != "-" && intPart != "+" {
		w, err := strconv.ParseInt(intPart, 10, 64)
		if err != nil {
			return Rat{}, fmt.Errorf("term: bad number %q: %w", s, err)
		}
		whole = w
	}
	frac, err := strconv.ParseUint(fracPart, 10, 63)
	if err != nil {
		return Rat{}, fmt.Errorf("term: bad number %q: %w", s, err)
	}
	den := int64(1)
	for range fracPart {
		den *= 10
	}
	mag := addChecked(mulChecked(abs64(whole), den), int64(frac))
	if neg {
		mag = -mag
	}
	return MakeRat(mag, den), nil
}

// norm returns the rational with a zero-value denominator fixed up, so that
// the zero Rat behaves as 0.
func (r Rat) norm() Rat {
	if r.d == 0 {
		return Rat{n: 0, d: 1}
	}
	return r
}

// Num returns the numerator.
func (r Rat) Num() int64 { return r.norm().n }

// Den returns the (positive) denominator.
func (r Rat) Den() int64 { return r.norm().d }

// IsInt reports whether the rational is an integer.
func (r Rat) IsInt() bool { return r.norm().d == 1 }

// Int returns the integer value; it panics unless IsInt.
func (r Rat) Int() int64 {
	r = r.norm()
	if r.d != 1 {
		panic("term: Int on non-integer rational " + r.String())
	}
	return r.n
}

// Add returns r + s. It panics with an overflow sentinel (convertible via
// RecoverOverflow) when the exact result exceeds int64 precision, and also,
// rarely, when the reduced result fits but a cross product on the way to it
// does not: a refusal, never a wrong value.
func (r Rat) Add(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Reduce cross terms by the gcd of the denominators first, shrinking
	// intermediates.
	g := gcd64(r.d, s.d)
	sd, rd := s.d/g, r.d/g
	return MakeRat(addChecked(mulChecked(r.n, sd), mulChecked(s.n, rd)), mulChecked(r.d, sd))
}

// Sub returns r - s; overflow behaves as in Add.
func (r Rat) Sub(s Rat) Rat { return r.Add(s.Neg()) }

// Mul returns r * s; overflow behaves as in Add.
func (r Rat) Mul(s Rat) Rat {
	r, s = r.norm(), s.norm()
	// Cross-reduce before multiplying to shrink intermediates.
	g1 := gcd64(r.n, s.d)
	g2 := gcd64(s.n, r.d)
	return MakeRat(mulChecked(r.n/g1, s.n/g2), mulChecked(r.d/g2, s.d/g1))
}

// Div returns r / s. It returns false if s is zero; overflow behaves as in
// Add.
func (r Rat) Div(s Rat) (Rat, bool) {
	s = s.norm()
	if s.n == 0 {
		return Rat{}, false
	}
	if s.n == -s.n { // MinInt64: |n| not representable
		panic(ratOverflowPanic{})
	}
	return r.Mul(Rat{n: s.d, d: abs64(s.n)}.withSign(s.n)), true
}

// withSign applies the sign of x to the rational.
func (r Rat) withSign(x int64) Rat {
	if x < 0 {
		return r.Neg()
	}
	return r
}

// Neg returns -r; overflow behaves as in Add (-(-2⁶³) is not an int64).
func (r Rat) Neg() Rat {
	r = r.norm()
	if r.n == math.MinInt64 {
		panic(ratOverflowPanic{})
	}
	return Rat{n: -r.n, d: r.d}
}

// Compare returns -1, 0 or +1 as r is less than, equal to, or greater than
// s. The comparison is exact and never overflows: the cross products are
// compared in 128 bits.
func (r Rat) Compare(s Rat) int {
	r, s = r.norm(), s.norm()
	lNeg, rNeg := r.n < 0, s.n < 0
	if lNeg != rNeg {
		if lNeg {
			return -1
		}
		return 1
	}
	lhi, llo := bits.Mul64(magnitude(r.n), uint64(s.d))
	rhi, rlo := bits.Mul64(magnitude(s.n), uint64(r.d))
	cmp := 0
	switch {
	case lhi != rhi:
		if lhi < rhi {
			cmp = -1
		} else {
			cmp = 1
		}
	case llo != rlo:
		if llo < rlo {
			cmp = -1
		} else {
			cmp = 1
		}
	}
	if lNeg {
		return -cmp
	}
	return cmp
}

// String renders the rational: integers plainly, decimal fractions as
// decimals when the denominator divides a power of ten, otherwise in the
// parseable "NrD" form (652r7 = 652/7). A slash would collide with the
// '/'-conjunction shorthand of the concrete syntax.
func (r Rat) String() string {
	var b [48]byte
	return string(r.AppendTo(b[:0]))
}

// AppendTo appends the rendering String returns to dst: rendering into a
// buffer with room allocates nothing.
func (r Rat) AppendTo(dst []byte) []byte {
	r = r.norm()
	if r.d == 1 {
		return strconv.AppendInt(dst, r.n, 10)
	}
	if digits, scaled, ok := r.decimalDigits(); ok {
		return appendDecimal(dst, scaled, digits)
	}
	dst = strconv.AppendInt(dst, r.n, 10)
	dst = append(dst, 'r')
	return strconv.AppendInt(dst, r.d, 10)
}

// decimalDigits reports how many decimal places the rational's exact
// decimal expansion takes, if it has one of at most 18, and its digits read
// as one integer (r × 10^digits), if that fits in an int64.
func (r Rat) decimalDigits() (digits int, scaled int64, ok bool) {
	den, pow := r.d, int64(1)
	for den > 1 && digits < 18 {
		switch {
		case den%10 == 0:
			den /= 10
		case den%5 == 0:
			den /= 5
		case den%2 == 0:
			den /= 2
		default:
			return 0, 0, false
		}
		digits++
		pow *= 10
	}
	// n*pow/d is exact because d divides pow.
	hi, lo := bits.Mul64(magnitude(r.n), uint64(pow/r.d))
	if den != 1 || hi != 0 || lo > math.MaxInt64 {
		return 0, 0, false
	}
	if r.n < 0 {
		return digits, -int64(lo), true
	}
	return digits, int64(lo), true
}

// appendDecimal appends scaled ÷ 10^digits as an exact decimal, less its
// trailing zeros.
func appendDecimal(dst []byte, scaled int64, digits int) []byte {
	if scaled < 0 {
		dst = append(dst, '-')
		scaled = -scaled
	}
	// The digits, padded with leading zeros to more than the places.
	var num [20]byte
	s := strconv.AppendInt(num[:0], scaled, 10)
	var padded [40]byte
	p := padded[:0]
	for range digits + 1 - len(s) {
		p = append(p, '0')
	}
	p = append(p, s...)
	dst = append(dst, p[:len(p)-digits]...)
	dst = append(dst, '.')
	dst = append(dst, p[len(p)-digits:]...)
	for dst[len(dst)-1] == '0' {
		dst = dst[:len(dst)-1]
	}
	if dst[len(dst)-1] == '.' {
		dst = dst[:len(dst)-1]
	}
	return dst
}

// gcd64 returns the greatest common divisor of |a| and |b|, 1 if both are
// zero. One of them is a denominator, so the result fits.
func gcd64(a, b int64) int64 { return int64(gcdMag(magnitude(a), magnitude(b))) }

// gcdMag returns the greatest common divisor of a and b, 1 if both are zero.
func gcdMag(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	if a == 0 {
		return 1
	}
	return a
}

func abs64(a int64) int64 {
	if a < 0 {
		return -a
	}
	return a
}
