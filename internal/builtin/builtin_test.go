package builtin

import (
	"errors"
	"math"
	"math/big"
	"math/rand/v2"
	"testing"

	"verlog/internal/term"
)

// edges are the int64 values at which rational arithmetic breaks when it
// breaks: 0, ±1, the ends of the range, and the magnitudes whose products
// or squares just cross it.
var edges = []int64{0, 1, -1, math.MaxInt64, -math.MaxInt64, math.MinInt64, 1 << 62, 3_037_000_500, -3_037_000_500}

// randNum draws a numeric OID and its exact value: numerator and
// denominator an edge value a quarter of the time, else random of a random
// bit length. Fractions term.MakeRat refuses are drawn again.
func randNum(rng *rand.Rand) (term.OID, *big.Rat) {
	draw := func() int64 {
		if rng.IntN(4) == 0 {
			return edges[rng.IntN(len(edges))]
		}
		v := int64(rng.Uint64() >> rng.IntN(64))
		if rng.IntN(2) == 0 {
			v = -v
		}
		return v
	}
	for {
		n, d := draw(), draw()
		if d == 0 {
			continue
		}
		var r term.Rat
		var err error
		func() {
			defer term.RecoverOverflow(&err)
			r = term.MakeRat(n, d)
		}()
		if err == nil {
			return term.FromRat(r), new(big.Rat).SetFrac(big.NewInt(n), big.NewInt(d))
		}
	}
}

// applyArith is ApplyArith with overflow reported as term.ErrRatOverflow,
// as the evaluators report it.
func applyArith(op term.ArithOp, l, r term.OID) (o term.OID, err error) {
	defer term.RecoverOverflow(&err)
	return ApplyArith(op, l, r)
}

// TestApplyArithAndCompareAgreeWithMathBig holds the built-ins' arithmetic
// against math/big on 10⁵ random pairs, edge values among them: every sum,
// difference, product and quotient equals big.Rat's, every one that does not
// reduce into int64 over int64 is refused with term.ErrRatOverflow, division
// by zero is an error, and the six comparisons agree with big.Rat.Cmp. A
// refusal of a result that fits is allowed, counted and logged.
func TestApplyArithAndCompareAgreeWithMathBig(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	const pairs = 100_000
	ops := []struct {
		op   term.ArithOp
		want func(z, x, y *big.Rat) *big.Rat
	}{
		{term.OpAdd, (*big.Rat).Add}, {term.OpSub, (*big.Rat).Sub},
		{term.OpMul, (*big.Rat).Mul}, {term.OpDiv, (*big.Rat).Quo},
	}
	cmps := []struct {
		op   term.CmpOp
		want func(c int) bool
	}{
		{term.OpEq, func(c int) bool { return c == 0 }}, {term.OpNe, func(c int) bool { return c != 0 }},
		{term.OpLt, func(c int) bool { return c < 0 }}, {term.OpLe, func(c int) bool { return c <= 0 }},
		{term.OpGt, func(c int) bool { return c > 0 }}, {term.OpGe, func(c int) bool { return c >= 0 }},
	}
	spurious := map[term.ArithOp]int{}
	for range pairs {
		l, x := randNum(rng)
		r, y := randNum(rng)
		for _, o := range ops {
			got, err := applyArith(o.op, l, r)
			if o.op == term.OpDiv && y.Sign() == 0 {
				if err == nil {
					t.Fatalf("%v / 0 = %v, want an error", l, got)
				}
				continue
			}
			want := o.want(new(big.Rat), x, y)
			fits := want.Num().IsInt64() && want.Denom().IsInt64()
			switch {
			case err != nil && !errors.Is(err, term.ErrRatOverflow):
				t.Fatalf("%v %v %v: %v", l, o.op, r, err)
			case err != nil && fits:
				spurious[o.op]++
			case err == nil && !(fits && got.Rat().Num() == want.Num().Int64() && got.Rat().Den() == want.Denom().Int64()):
				t.Fatalf("%v %v %v = %v, want %s", l, o.op, r, got, want)
			}
		}
		c := x.Cmp(y)
		for _, cmp := range cmps {
			if got, err := Compare(cmp.op, l, r); err != nil || got != cmp.want(c) {
				t.Fatalf("%v %v %v = %v, %v; want %v", l, cmp.op, r, got, err, cmp.want(c))
			}
		}
	}
	for _, o := range ops {
		t.Logf("%v: %d of %d refusals of a result that fits", o.op, spurious[o.op], pairs)
	}
}

// TestApplyArithInlineAllocatesNothing: the arithmetic of an update such as
// S' = S + 1 or S' = S * 1.1 mints a new number on every apply; while it
// stays in the inline range of an OID that number allocates nothing.
func TestApplyArithInlineAllocatesNothing(t *testing.T) {
	var sink term.OID
	for _, c := range []struct {
		op   term.ArithOp
		l, r term.OID
		want term.OID
	}{
		{term.OpAdd, term.Int(4200), term.Int(1), term.Int(4201)},
		{term.OpMul, term.Int(4200), term.Num(11, 10), term.Int(4620)},
		{term.OpMul, term.Int(4205), term.Num(11, 10), term.Num(9251, 2)},
		{term.OpMul, term.Num(9251, 2), term.Num(11, 10), term.Num(101761, 20)},
	} {
		if got, err := ApplyArith(c.op, c.l, c.r); err != nil || got != c.want {
			t.Errorf("%v %v %v = %v, %v; want %v", c.l, c.op, c.r, got, err, c.want)
		}
		if n := testing.AllocsPerRun(20, func() { sink, _ = ApplyArith(c.op, c.l, c.r) }); n != 0 {
			t.Errorf("%v %v %v allocates %.0f times", c.l, c.op, c.r, n)
		}
	}
	_ = sink
}
