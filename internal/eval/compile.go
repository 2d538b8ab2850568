package eval

// compile.go is the compilation tier between stratification and the
// fixpoint loop: each rule body, in the join order the statistics planner
// picks, becomes a MatchPlan — a flat sequence of index-probe / scan /
// filter / negation-check steps over numbered variable slots. The
// executor (exec.go) runs plans against a base with its own buffer arena —
// the plans of rules and, a query being a rule body without a head, of
// Query. It is the only evaluator that ships; the tests hold it against
// internal/spec, the paper's definitions over a plain set of facts.
//
// Index-probe soundness: rule heads always target versions with at least
// one update-kind on their path (Update.Target pushes onto the path), so
// path-0 facts never change during a fixpoint. Probe steps are therefore
// only compiled for path-0 literals, where the partitions of the input
// base's LiteralIndex stay exact for the whole evaluation; literals over
// deeper paths scan the live base.

import (
	"fmt"
	"hash/fnv"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// omode is the static binding mode of an operand position.
type omode uint8

const (
	oConst omode = iota // ground OID, compare
	oBind               // first occurrence of a variable: write the slot
	oCheck              // variable bound earlier: compare against the slot
)

// operand is a compiled object-id-term: a constant or a frame slot with a
// statically known binding mode.
type operand struct {
	mode omode
	slot int
	c    term.OID
}

// value resolves the operand against the frame. Only valid for oConst and
// oCheck operands.
func (op operand) value(fr []term.OID) term.OID {
	if op.mode == oConst {
		return op.c
	}
	return fr[op.slot]
}

// match unifies the operand with a ground OID: constants and checked slots
// compare, binding slots write. A failed match leaves no state to undo —
// slots written by a candidate are simply overwritten by the next one and
// zeroed when the step exhausts.
func (op operand) match(fr []term.OID, o term.OID) bool {
	switch op.mode {
	case oConst:
		return op.c == o
	case oCheck:
		return fr[op.slot] == o
	default:
		fr[op.slot] = o
		return true
	}
}

// access is how a step enumerates candidate versions.
type access uint8

const (
	// accessLookup resolves the bound base to a single VID.
	accessLookup access = iota
	// accessProbeResult probes the literal index on (path, method, result).
	accessProbeResult
	// accessProbeArg probes the literal index on (path, method, first arg).
	accessProbeArg
	// accessScan walks the live (path, method) population.
	accessScan
	// accessAny walks every path carrying the method (any(...) wildcard).
	accessAny
	// accessDelta joins against the facts added by the previous iteration.
	accessDelta
)

// AccessName renders an access for plan output.
func (a access) name() string {
	switch a {
	case accessLookup:
		return AccessLookup
	case accessProbeResult:
		return AccessProbeResult
	case accessProbeArg:
		return AccessProbeArg
	case accessAny:
		return AccessAnyScan
	case accessDelta:
		return AccessDelta
	default:
		return AccessScan
	}
}

// stepKind discriminates the compiled step forms.
type stepKind uint8

const (
	stepScan    stepKind = iota // positive version pattern (version-term or ins)
	stepDel                     // positive del[...] body literal
	stepMod                     // positive mod[...] body literal
	stepBuiltin                 // comparison / binding equality
	stepNegVer                  // negated version-term or ins-term (path pre-pushed)
	stepNegAny                  // negated any(...) version-term
	stepNegDel                  // negated del-term
	stepNegMod                  // negated mod-term
)

// cexpr is a compiled arithmetic expression over frame slots.
type cexpr struct {
	kind uint8 // ceConst, ceSlot, ceNeg, ceBin
	c    term.OID
	slot int
	op   term.ArithOp
	l, r *cexpr
}

const (
	ceConst = iota
	ceSlot
	ceNeg
	ceBin
)

// cstep is one compiled match step. Field use depends on kind; see the
// executor.
type cstep struct {
	kind stepKind
	acc  access

	// Version pattern / update-term payload.
	path   term.Path // effective pattern path (pushed for ins / neg-ins)
	tpath  term.Path // pushed target path for del/mod steps
	method string
	base   operand
	args   []operand
	result operand
	// keyStatic marks a fully constant argument tuple; key is then the
	// precomputed method key. argsBind marks a tuple with binding slots,
	// which forces an application scan.
	keyStatic bool
	key       term.MethodKey
	argsBind  bool
	newResult operand // mod steps

	// Builtin payload.
	cmp      term.CmpOp
	lhs, rhs *cexpr
	bindSlot int  // slot bound by a binding equality; -1 otherwise
	negate   bool // negated builtin

	// bindSlots lists every slot this step may bind; the executor zeroes
	// them when the step exhausts so parent candidates start clean.
	bindSlots []int
}

// chead is the compiled rule head.
type chead struct {
	kind      term.UpdateKind
	all       bool
	base      operand
	path      term.Path
	method    string
	args      []operand
	keyStatic bool
	key       term.MethodKey
	result    operand
	newResult operand
}

// pmKey buckets delta facts by (path, method) so each delta variant joins
// only the slice its seed literal can match.
type pmKey struct {
	Path   term.Path
	Method string
}

// compiledRule is one rule's MatchPlan set: the full plan plus one
// delta-seeded variant per delta-seedable body literal.
type compiledRule struct {
	nslots int
	steps  []cstep
	head   chead
	// deltaSteps[i] is the variant with the i-th delta-seedable body literal
	// joined first against the iteration delta, and deltaKeys[i] the bucket
	// its seed reads.
	deltaSteps [][]cstep
	deltaKeys  []pmKey
}

// CompiledProgram is the compiled form of an update-program: per-rule match
// plans keyed by the program's hash, reusable across applies that share a
// rule set (the repository caches one per head).
type CompiledProgram struct {
	hash  uint64
	rules []*compiledRule
}

// Matches reports whether the plans were compiled for p. How they are
// ordered is not part of the question: cached plans were ordered by the
// statistics of an older head anyway, and a caller may supply plans
// compiled with the source-order planner (the planner ablation does).
func (cp *CompiledProgram) Matches(p *term.Program) bool {
	return cp != nil && cp.hash == ProgramHash(p)
}

// ProgramHash fingerprints a program's rule set for plan-cache keying.
func ProgramHash(p *term.Program) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.String()))
	return h.Sum64()
}

// Compile builds match plans for every rule of p against base: join orders
// from the statistics planner refined with index selectivity, probe steps
// for path-0 literals, and delta variants for semi-naive iteration; static
// selects the source-order planner instead (the planner ablation). A rule
// with a variable unbound where a ground value is required — an unsafe rule
// — is rejected with a *CompileError.
func Compile(base *objectbase.Base, p *term.Program, static bool) (*CompiledProgram, error) {
	est := indexedCost(base)
	if static {
		est = staticCost
	}
	cp := &CompiledProgram{hash: ProgramHash(p)}
	for ri, r := range p.Rules {
		cr, err := compileRule(r, est)
		if err != nil {
			return nil, &CompileError{Rule: r.Label(ri), Err: err}
		}
		cp.rules = append(cp.rules, cr)
	}
	return cp, nil
}

// CompileError reports a rule — or a query, under the label "query" — that
// needs a ground value where a variable is still unbound: a head position,
// an expression, a negated literal. Package safety rejects exactly these.
type CompileError struct {
	Rule string
	Err  error
}

func (e *CompileError) Error() string { return fmt.Sprintf("eval: compile rule %s: %v", e.Rule, e.Err) }
func (e *CompileError) Unwrap() error { return e.Err }

// ruleCompiler carries the per-rule slot table; variants of the same rule
// share the numbering so frames are interchangeable.
type ruleCompiler struct {
	slots map[term.Var]int
	n     int
}

func (rc *ruleCompiler) slot(v term.Var) int {
	if s, ok := rc.slots[v]; ok {
		return s
	}
	s := rc.n
	rc.slots[v] = s
	rc.n++
	return s
}

func compileRule(r term.Rule, est costEstimator) (*compiledRule, error) {
	rc := &ruleCompiler{slots: map[term.Var]int{}}
	order := greedyOrder(r, est, -1)
	steps, bound, err := compileSteps(rc, r, order, -1)
	if err != nil {
		return nil, err
	}
	head, err := compileHead(rc, r, bound)
	if err != nil {
		return nil, err
	}
	cr := &compiledRule{steps: steps, head: head}
	for i, l := range r.Body {
		if !deltaSeedable(l) {
			continue
		}
		dorder := greedyOrder(r, est, i)
		dsteps, _, err := compileSteps(rc, r, dorder, i)
		if err != nil {
			return nil, err
		}
		cr.deltaSteps = append(cr.deltaSteps, dsteps)
		cr.deltaKeys = append(cr.deltaKeys, pmKey{Path: dsteps[0].path, Method: dsteps[0].method})
	}
	cr.nslots = rc.n
	return cr, nil
}

// literalCompiler compiles the operands of one literal, tracking binding
// modes against the bound-before-literal snapshot.
type literalCompiler struct {
	rc    *ruleCompiler
	bound map[int]bool // slots bound by earlier literals or earlier positions of this one
	prior map[int]bool // slots bound strictly before this literal
	binds []int
}

func (lc *literalCompiler) operand(t term.ObjTerm) (operand, error) {
	switch x := t.(type) {
	case term.OID:
		return operand{mode: oConst, c: x}, nil
	case term.Var:
		s := lc.rc.slot(x)
		if lc.bound[s] {
			return operand{mode: oCheck, slot: s}, nil
		}
		lc.bound[s] = true
		lc.binds = append(lc.binds, s)
		return operand{mode: oBind, slot: s}, nil
	default:
		return operand{}, fmt.Errorf("unsupported object term %T", t)
	}
}

// groundOperand is operand for positions that must be resolvable before the
// literal runs (negations, head positions).
func (lc *literalCompiler) groundOperand(t term.ObjTerm) (operand, error) {
	op, err := lc.operand(t)
	if err != nil {
		return op, err
	}
	if op.mode == oBind {
		return op, fmt.Errorf("variable %s unbound where a ground value is required", t)
	}
	return op, nil
}

// priorGround reports whether t's value is available before the literal
// starts enumerating (a constant or a slot bound by an earlier literal).
func (lc *literalCompiler) priorGround(t term.ObjTerm) bool {
	switch x := t.(type) {
	case term.OID:
		return true
	case term.Var:
		s, ok := lc.rc.slots[x]
		return ok && lc.prior[s]
	default:
		return false
	}
}

// compileApp compiles the argument and result operands into st and
// classifies the key.
func (lc *literalCompiler) compileApp(st *cstep, app term.MethodApp) error {
	st.method = app.Method
	st.keyStatic = true
	for _, a := range app.Args {
		op, err := lc.operand(a)
		if err != nil {
			return err
		}
		if op.mode != oConst {
			st.keyStatic = false
		}
		if op.mode == oBind {
			st.argsBind = true
		}
		st.args = append(st.args, op)
	}
	if st.keyStatic {
		consts := make([]term.OID, len(st.args))
		for i, op := range st.args {
			consts[i] = op.c
		}
		st.key = term.MethodKey{Method: app.Method, Args: term.EncodeOIDs(consts)}
	}
	op, err := lc.operand(app.Result)
	if err != nil {
		return err
	}
	st.result = op
	return nil
}

// compileSteps compiles the body literals in the given order. deltaSrc >= 0
// marks the source literal compiled as the delta seed (it must be first in
// order). It returns the steps and the final bound-slot set (for the head).
func compileSteps(rc *ruleCompiler, r term.Rule, order []int, deltaSrc int) ([]cstep, map[int]bool, error) {
	bound := map[int]bool{}
	steps := make([]cstep, 0, len(order))
	for pos, li := range order {
		l := r.Body[li]
		lc := &literalCompiler{rc: rc, bound: bound, prior: snapshot(bound)}
		var st cstep
		isDelta := deltaSrc >= 0 && pos == 0
		if err := compileLiteral(lc, &st, l, isDelta); err != nil {
			return nil, nil, fmt.Errorf("literal %s: %w", l, err)
		}
		st.bindSlots = lc.binds
		steps = append(steps, st)
	}
	return steps, bound, nil
}

func snapshot(m map[int]bool) map[int]bool {
	out := make(map[int]bool, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

func compileLiteral(lc *literalCompiler, st *cstep, l term.Literal, isDelta bool) error {
	if l.Neg {
		return compileNegation(lc, st, l.Atom)
	}
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		return compilePattern(lc, st, a.V, a.V.Path, a.App, isDelta)
	case term.UpdateAtom:
		switch a.Kind {
		case term.Ins:
			return compilePattern(lc, st, a.V, a.V.Path.Push(term.Ins), a.App, isDelta)
		case term.Del:
			return compileDelMod(lc, st, a, stepDel)
		case term.Mod:
			return compileDelMod(lc, st, a, stepMod)
		default:
			return fmt.Errorf("invalid update kind %v", a.Kind)
		}
	case term.BuiltinAtom:
		return compileBuiltin(lc, st, a, false)
	default:
		return fmt.Errorf("unknown atom type %T", l.Atom)
	}
}

// compilePattern compiles a positive version pattern (version-term, or
// ins-term with the path already pushed) and picks its access.
func compilePattern(lc *literalCompiler, st *cstep, v term.VersionID, path term.Path, app term.MethodApp, isDelta bool) error {
	st.kind = stepScan
	st.path = path
	// Access choice precedes operand compilation: probe eligibility depends
	// on values available before this literal binds anything.
	switch {
	case isDelta:
		st.acc = accessDelta
	case v.Any:
		st.acc = accessAny
	case lc.priorGround(v.Base):
		st.acc = accessLookup
	case path.Len() == 0 && lc.priorGround(app.Result):
		st.acc = accessProbeResult
	case path.Len() == 0 && len(app.Args) > 0 && lc.priorGround(app.Args[0]):
		st.acc = accessProbeArg
	default:
		st.acc = accessScan
	}
	op, err := lc.operand(v.Base)
	if err != nil {
		return err
	}
	st.base = op
	return lc.compileApp(st, app)
}

// compileDelMod compiles positive del/mod body literals: candidates are
// enumerated on the pushed target path, then matched against v*.
func compileDelMod(lc *literalCompiler, st *cstep, a term.UpdateAtom, kind stepKind) error {
	if a.All {
		return fmt.Errorf("delete-all in body position")
	}
	st.kind = kind
	st.path = a.V.Path
	st.tpath = a.V.Path.Push(a.Kind)
	if a.V.Any {
		return fmt.Errorf("any(...) on an update-term")
	}
	if lc.priorGround(a.V.Base) {
		st.acc = accessLookup
	} else {
		st.acc = accessScan
	}
	op, err := lc.operand(a.V.Base)
	if err != nil {
		return err
	}
	st.base = op
	if err := lc.compileApp(st, a.App); err != nil {
		return err
	}
	if kind == stepMod {
		nr, err := lc.operand(a.NewResult)
		if err != nil {
			return err
		}
		st.newResult = nr
	}
	return nil
}

func compileBuiltin(lc *literalCompiler, st *cstep, a term.BuiltinAtom, negated bool) error {
	st.kind = stepBuiltin
	st.cmp = a.Op
	st.negate = negated
	st.bindSlot = -1
	if a.Op == term.OpEq && !negated {
		// A binding equality: one side a bare variable without a binding yet.
		if v, ok := bareUnboundVar(lc, a.L); ok {
			rhs, err := compileExpr(lc, a.R)
			if err != nil {
				return err
			}
			s := lc.rc.slot(v)
			lc.bound[s] = true
			lc.binds = append(lc.binds, s)
			st.bindSlot = s
			st.rhs = rhs
			return nil
		}
		if v, ok := bareUnboundVar(lc, a.R); ok {
			lhs, err := compileExpr(lc, a.L)
			if err != nil {
				return err
			}
			s := lc.rc.slot(v)
			lc.bound[s] = true
			lc.binds = append(lc.binds, s)
			st.bindSlot = s
			st.rhs = lhs
			return nil
		}
	}
	lhs, err := compileExpr(lc, a.L)
	if err != nil {
		return err
	}
	rhs, err := compileExpr(lc, a.R)
	if err != nil {
		return err
	}
	st.lhs, st.rhs = lhs, rhs
	return nil
}

// bareUnboundVar reports whether e is a bare variable with no binding yet.
func bareUnboundVar(lc *literalCompiler, e term.Expr) (term.Var, bool) {
	v, ok := e.(term.VarExpr)
	if !ok {
		return "", false
	}
	if s, seen := lc.rc.slots[v.V]; seen && lc.bound[s] {
		return "", false
	}
	return v.V, true
}

func compileExpr(lc *literalCompiler, e term.Expr) (*cexpr, error) {
	switch x := e.(type) {
	case term.ConstExpr:
		return &cexpr{kind: ceConst, c: x.OID}, nil
	case term.VarExpr:
		s, seen := lc.rc.slots[x.V]
		if !seen || !lc.bound[s] {
			return nil, fmt.Errorf("variable %s unbound in expression", x.V)
		}
		return &cexpr{kind: ceSlot, slot: s}, nil
	case term.NegExpr:
		sub, err := compileExpr(lc, x.E)
		if err != nil {
			return nil, err
		}
		return &cexpr{kind: ceNeg, l: sub}, nil
	case term.BinExpr:
		l, err := compileExpr(lc, x.L)
		if err != nil {
			return nil, err
		}
		r, err := compileExpr(lc, x.R)
		if err != nil {
			return nil, err
		}
		return &cexpr{kind: ceBin, op: x.Op, l: l, r: r}, nil
	default:
		return nil, fmt.Errorf("unknown expression %T", e)
	}
}

// compileNegation compiles a negated literal; every position must be ground
// when the step runs (safe rules guarantee it — the planner schedules
// negations after their variables bind).
func compileNegation(lc *literalCompiler, st *cstep, a term.Atom) error {
	switch x := a.(type) {
	case term.VersionAtom:
		if x.V.Any {
			st.kind = stepNegAny
			st.path = x.V.Path
		} else {
			st.kind = stepNegVer
			st.path = x.V.Path
		}
		op, err := lc.groundOperand(x.V.Base)
		if err != nil {
			return err
		}
		st.base = op
		return compileGroundApp(lc, st, x.App)
	case term.UpdateAtom:
		if x.All {
			return fmt.Errorf("delete-all in body position")
		}
		st.path = x.V.Path
		st.tpath = x.V.Path.Push(x.Kind)
		switch x.Kind {
		case term.Ins:
			// !ins[v].m -> r is !ins(v).m -> r: a plain fact check on the
			// pushed path.
			st.kind = stepNegVer
			st.path = st.tpath
		case term.Del:
			st.kind = stepNegDel
		case term.Mod:
			st.kind = stepNegMod
		default:
			return fmt.Errorf("invalid update kind %v", x.Kind)
		}
		op, err := lc.groundOperand(x.V.Base)
		if err != nil {
			return err
		}
		st.base = op
		if err := compileGroundApp(lc, st, x.App); err != nil {
			return err
		}
		if x.Kind == term.Mod {
			nr, err := lc.groundOperand(x.NewResult)
			if err != nil {
				return err
			}
			st.newResult = nr
		}
		return nil
	case term.BuiltinAtom:
		return compileBuiltin(lc, st, x, true)
	default:
		return fmt.Errorf("unknown atom type %T", a)
	}
}

// compileGroundApp compiles a fully ground application (negation shapes).
func compileGroundApp(lc *literalCompiler, st *cstep, app term.MethodApp) error {
	st.method = app.Method
	st.keyStatic = true
	for _, a := range app.Args {
		op, err := lc.groundOperand(a)
		if err != nil {
			return err
		}
		if op.mode != oConst {
			st.keyStatic = false
		}
		st.args = append(st.args, op)
	}
	if st.keyStatic {
		consts := make([]term.OID, len(st.args))
		for i, op := range st.args {
			consts[i] = op.c
		}
		st.key = term.MethodKey{Method: app.Method, Args: term.EncodeOIDs(consts)}
	}
	op, err := lc.groundOperand(app.Result)
	if err != nil {
		return err
	}
	st.result = op
	return nil
}

func compileHead(rc *ruleCompiler, r term.Rule, bound map[int]bool) (chead, error) {
	lc := &literalCompiler{rc: rc, bound: bound, prior: bound}
	h := chead{kind: r.Head.Kind, all: r.Head.All, path: r.Head.V.Path}
	if r.Head.V.Any {
		return h, fmt.Errorf("any(...) in head")
	}
	op, err := lc.groundOperand(r.Head.V.Base)
	if err != nil {
		return h, fmt.Errorf("head %s: %w", r.Head, err)
	}
	h.base = op
	if h.all {
		return h, nil
	}
	h.method = r.Head.App.Method
	h.keyStatic = true
	for _, a := range r.Head.App.Args {
		aop, err := lc.groundOperand(a)
		if err != nil {
			return h, fmt.Errorf("head %s: %w", r.Head, err)
		}
		if aop.mode != oConst {
			h.keyStatic = false
		}
		h.args = append(h.args, aop)
	}
	if h.keyStatic {
		consts := make([]term.OID, len(h.args))
		for i, aop := range h.args {
			consts[i] = aop.c
		}
		h.key = term.MethodKey{Method: h.method, Args: term.EncodeOIDs(consts)}
	}
	rop, err := lc.groundOperand(r.Head.App.Result)
	if err != nil {
		return h, fmt.Errorf("head %s: %w", r.Head, err)
	}
	h.result = rop
	if h.kind == term.Mod {
		nr, err := lc.groundOperand(r.Head.NewResult)
		if err != nil {
			return h, fmt.Errorf("head %s: %w", r.Head, err)
		}
		h.newResult = nr
	}
	return h, nil
}
