package eval

// shape.go keys plans by program shape. Variables range over OIDs only
// (Section 2.1), so an OID constant in an object, argument or result
// position is a variable bound before the run: a program and a query body
// lift to their shape — the structure with each distinct such constant
// replaced by its first-occurrence index — and a parameter vector, those
// constants in that order. Programs that differ only in the parameter
// vector share one shape, and plans compiled with the parameters as
// pre-bound frame slots serve all of them. Constants inside built-in
// expressions stay part of the shape. A shape lifts at most MaxParams
// constants; any further distinct one stays a constant of the shape, so a
// program with many is in effect keyed by itself.
//
// The shape hash only finds a cache slot. A hit is confirmed by comparing
// the cached program with the instance position by position (shapeCmp),
// so a colliding hash is a miss, never another program's plans.

import (
	"verlog/internal/term"
)

// MaxParams bounds the parameters a shape lifts, and with them the linear
// first-occurrence lookups of the walk and the slots a frame reserves. A
// caller's buffer with room for MaxParams keeps the walk off the heap.
const MaxParams = 16

// FNV-1a, inline: the walk allocates nothing.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// shapeWalk hashes a program or body in one pass and collects its
// parameters in place: a slice stored through the walker would take the
// caller's buffer to the heap.
type shapeWalk struct {
	h      uint64
	params [MaxParams]term.OID
	n      int
}

func (w *shapeWalk) byte(b byte) { w.h = (w.h ^ uint64(b)) * fnvPrime }

func (w *shapeWalk) str(s string) {
	for i := 0; i < len(s); i++ {
		w.byte(s[i])
	}
	w.byte(0)
}

func (w *shapeWalk) int(x int64) {
	for i := 0; i < 64; i += 8 {
		w.byte(byte(x >> i))
	}
}

// oid hashes an OID by value.
func (w *shapeWalk) oid(o term.OID) {
	if o.IsNum() {
		r := o.Rat()
		w.byte('#')
		w.int(r.Num())
		w.int(r.Den())
		return
	}
	w.byte(byte(o.Sort()))
	w.str(o.Name())
}

// obj hashes an object-id-term in a lifted position: a constant by its
// parameter index.
func (w *shapeWalk) obj(t term.ObjTerm) {
	switch x := t.(type) {
	case term.Var:
		w.byte('V')
		w.str(string(x))
	case term.OID:
		i := paramIndex(w.params[:w.n], x)
		if i < 0 && w.n < MaxParams {
			i = w.n
			w.params[i] = x
			w.n++
		}
		if i < 0 {
			w.byte('C')
			w.oid(x)
			return
		}
		w.byte('P')
		w.byte(byte(i))
	default:
		w.byte('-')
	}
}

func (w *shapeWalk) vid(v term.VersionID) {
	if v.Any {
		w.byte('*')
	}
	w.str(string(v.Path))
	w.obj(v.Base)
}

func (w *shapeWalk) app(a term.MethodApp) {
	w.str(a.Method)
	w.byte(byte(len(a.Args)))
	for _, t := range a.Args {
		w.obj(t)
	}
	w.obj(a.Result)
}

func (w *shapeWalk) expr(e term.Expr) {
	switch x := e.(type) {
	case term.ConstExpr:
		w.byte('c')
		w.oid(x.OID)
	case term.VarExpr:
		w.byte('v')
		w.str(string(x.V))
	case term.BinExpr:
		w.byte('b')
		w.byte(byte(x.Op))
		w.expr(x.L)
		w.expr(x.R)
	case term.NegExpr:
		w.byte('n')
		w.expr(x.E)
	}
}

func (w *shapeWalk) update(a term.UpdateAtom) {
	w.byte('U')
	w.byte(byte(a.Kind))
	if a.All {
		w.byte('*')
	}
	w.vid(a.V)
	w.app(a.App)
	w.obj(a.NewResult)
}

func (w *shapeWalk) body(body []term.Literal) {
	w.int(int64(len(body)))
	for _, l := range body {
		if l.Neg {
			w.byte('!')
		}
		switch a := l.Atom.(type) {
		case term.VersionAtom:
			w.byte('A')
			w.vid(a.V)
			w.app(a.App)
		case term.UpdateAtom:
			w.update(a)
		case term.BuiltinAtom:
			w.byte('B')
			w.byte(byte(a.Op))
			w.expr(a.L)
			w.expr(a.R)
		}
	}
}

// ProgramShape returns the shape hash of p and appends its parameters to
// params (a caller's buffer: with room for MaxParams the walk allocates
// nothing). Rule labels are not part of the shape: plans do not depend on
// them.
func ProgramShape(p *term.Program, params []term.OID) (uint64, []term.OID) {
	w := shapeWalk{h: fnvOffset}
	w.byte('P')
	for _, r := range p.Rules {
		w.update(r.Head)
		w.body(r.Body)
	}
	return w.h, append(params, w.params[:w.n]...)
}

// QueryShape is ProgramShape for a query body.
func QueryShape(body []term.Literal, params []term.OID) (uint64, []term.OID) {
	w := shapeWalk{h: fnvOffset}
	w.byte('Q')
	w.body(body)
	return w.h, append(params, w.params[:w.n]...)
}

// TextKey mixes a parameter vector into a shape hash: the key of plans
// that serve one text only (see CompiledProgram.Lifted).
func TextKey(shape uint64, params []term.OID) uint64 {
	w := shapeWalk{h: shape}
	for _, o := range params {
		w.oid(o)
	}
	return w.h
}

// paramIndex returns the index of o in params, or -1.
func paramIndex(params []term.OID, o term.OID) int {
	for i, p := range params {
		if p == o {
			return i
		}
	}
	return -1
}

// shapeCmp compares two programs or bodies position by position. A lifted
// position matches when both constants have the same index in their own
// parameter vectors, or, outside them (past MaxParams, or with nil
// vectors: a comparison of texts), are equal.
type shapeCmp struct {
	pa, pb []term.OID
}

func (c shapeCmp) obj(a, b term.ObjTerm) bool {
	switch x := a.(type) {
	case term.Var:
		y, ok := b.(term.Var)
		return ok && x == y
	case term.OID:
		y, ok := b.(term.OID)
		if !ok {
			return false
		}
		i := paramIndex(c.pa, x)
		return i == paramIndex(c.pb, y) && (i >= 0 || x == y)
	default:
		return a == nil && b == nil
	}
}

func (c shapeCmp) vid(a, b term.VersionID) bool {
	return a.Any == b.Any && a.Path == b.Path && c.obj(a.Base, b.Base)
}

func (c shapeCmp) app(a, b term.MethodApp) bool {
	if a.Method != b.Method || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if !c.obj(a.Args[i], b.Args[i]) {
			return false
		}
	}
	return c.obj(a.Result, b.Result)
}

func (c shapeCmp) update(a, b term.UpdateAtom) bool {
	return a.Kind == b.Kind && a.All == b.All && c.vid(a.V, b.V) && c.app(a.App, b.App) && c.obj(a.NewResult, b.NewResult)
}

func (c shapeCmp) body(a, b []term.Literal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Neg != b[i].Neg {
			return false
		}
		switch x := a[i].Atom.(type) {
		case term.VersionAtom:
			y, ok := b[i].Atom.(term.VersionAtom)
			if !ok || !c.vid(x.V, y.V) || !c.app(x.App, y.App) {
				return false
			}
		case term.UpdateAtom:
			y, ok := b[i].Atom.(term.UpdateAtom)
			if !ok || !c.update(x, y) {
				return false
			}
		case term.BuiltinAtom:
			y, ok := b[i].Atom.(term.BuiltinAtom)
			if !ok || x.Op != y.Op || !sameExpr(x.L, y.L) || !sameExpr(x.R, y.R) {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func (c shapeCmp) program(a, b *term.Program) bool {
	if len(a.Rules) != len(b.Rules) {
		return false
	}
	for i := range a.Rules {
		if !c.update(a.Rules[i].Head, b.Rules[i].Head) || !c.body(a.Rules[i].Body, b.Rules[i].Body) {
			return false
		}
	}
	return true
}

// sameExpr compares built-in expressions exactly: their constants are part
// of the shape.
func sameExpr(a, b term.Expr) bool {
	switch x := a.(type) {
	case term.ConstExpr:
		y, ok := b.(term.ConstExpr)
		return ok && x.OID == y.OID
	case term.VarExpr:
		y, ok := b.(term.VarExpr)
		return ok && x.V == y.V
	case term.BinExpr:
		y, ok := b.(term.BinExpr)
		return ok && x.Op == y.Op && sameExpr(x.L, y.L) && sameExpr(x.R, y.R)
	case term.NegExpr:
		y, ok := b.(term.NegExpr)
		return ok && sameExpr(x.E, y.E)
	default:
		return false
	}
}
