package analysis

import (
	"fmt"
	"sort"
	"strings"

	"verlog/internal/term"
)

// This file is the abstract-interpretation half of the deep tier: every
// rule variable is mapped to an abstract value — a set of OID sorts
// (num/sym/str) and, when a base is supplied, a set of classes its
// receiver occurrences can match. The sort lattice is a 3-bit mask; the
// class lattice is the powerset of the base's isa targets. Both analyses
// over-approximate (constraints come only from positive occurrences), so
// an empty set is a proof: the literal or variable can never match, which
// is what V0301/V0302/V0303 report.

// sortMask is a bitset over term.Sort.
type sortMask uint8

const (
	maskSym  sortMask = 1 << term.SortSym
	maskNum  sortMask = 1 << term.SortNum
	maskStr  sortMask = 1 << term.SortStr
	maskAny           = maskSym | maskNum | maskStr
	maskNone sortMask = 0
)

func maskOf(s term.Sort) sortMask { return 1 << s }

// names renders the mask as sorted sort names.
func (m sortMask) names() []string {
	var out []string
	if m&maskNum != 0 {
		out = append(out, "num")
	}
	if m&maskStr != 0 {
		out = append(out, "str")
	}
	if m&maskSym != 0 {
		out = append(out, "sym")
	}
	return out // already alphabetical: num < str < sym
}

// unclassed is the pseudo-class of base objects without an isa fact.
const unclassed = "(unclassed)"

// methodSignature is the program-wide abstract signature of one method:
// the sorts its results and arguments can take.
type methodSignature struct {
	result sortMask
	args   []sortMask
}

// inference is the computed abstract state shared by the V030x checks and
// the Facts export.
type inference struct {
	// sigs is the fixpoint method-signature table: base facts plus every
	// head-written result/argument.
	sigs map[string]*methodSignature
	// established is the method-result table without mod rewrites: base
	// facts plus ins-head results. V0303 checks mod heads against it.
	established map[string]sortMask
	// varSorts[ri] maps each rule variable to its inferred sort mask.
	varSorts []map[term.Var]sortMask
	// classesOf maps base objects to their classes (isa targets at the
	// base state); classMethods maps each class to the union of methods
	// its members carry. Nil without a base.
	classesOf    map[term.OID][]string
	classMethods map[string]map[string]bool
	classNames   []string // sorted, including unclassed when present
}

// readMask returns the sorts a read of method m's result can see. Methods
// nothing defines (or whose mask is still empty) stay unconstrained: their
// deadness is V0101/V0202 territory, not a sort conflict.
func (in *inference) readMask(m string) sortMask {
	if sig, ok := in.sigs[m]; ok && sig.result != maskNone {
		return sig.result
	}
	return maskAny
}

// readArgMask is readMask for argument position i.
func (in *inference) readArgMask(m string, i int) sortMask {
	if sig, ok := in.sigs[m]; ok && i < len(sig.args) && sig.args[i] != maskNone {
		return sig.args[i]
	}
	return maskAny
}

// sig returns (creating) the signature entry for m with arity >= k.
func (in *inference) sig(m string, arity int) *methodSignature {
	s := in.sigs[m]
	if s == nil {
		s = &methodSignature{}
		in.sigs[m] = s
	}
	for len(s.args) < arity {
		s.args = append(s.args, maskNone)
	}
	return s
}

// inferPass runs sort and class inference and emits V0301, V0302, V0303.
// It fills f.Rules[*].Vars.
func inferPass(c *ctx, f *Facts) {
	in := &inference{
		sigs:        map[string]*methodSignature{},
		established: map[string]sortMask{},
	}
	f.Base = in.readBase(c)

	// Fixpoint over the method-signature table: rule-local sort inference
	// and head-written signatures feed each other. Masks only grow, so the
	// loop terminates; practically it converges in two or three rounds.
	for round := 0; ; round++ {
		in.inferAllRules(c)
		if !in.contributeHeads(c) || round > 24 {
			break
		}
	}

	in.reportSortClashes(c, f)
	in.reportModRetypes(c)
	in.reportClassMatches(c, f)
}

// readBase walks the supplied base once, in no order: it enters every fact
// into the signature tables, builds the class tables from the base's path-0
// state — classesOf from isa facts, classMethods as the union of the methods
// each class's members carry — and counts the objects and versions. A
// version's facts come together, so an object's classes are known once its
// facts have passed. Rule heads only ever write versions (path >= 1), so the
// base state is the complete truth about path-0 reads.
func (in *inference) readBase(c *ctx) BaseFacts {
	b := c.opts.Base
	if b == nil {
		return BaseFacts{}
	}
	in.classesOf = map[term.OID][]string{}
	in.classMethods = map[string]map[string]bool{}
	facts := BaseFacts{Supplied: true, Facts: b.Size()}
	var v term.GVID
	var methods []string
	// carried enters the methods of v, a path-0 version, under its classes.
	carried := func() {
		if len(methods) == 0 {
			return
		}
		classes := in.classesOf[v.Object]
		if len(classes) == 0 {
			classes = []string{unclassed}
		}
		for _, cl := range classes {
			if in.classMethods[cl] == nil {
				in.classMethods[cl] = map[string]bool{}
			}
			for _, m := range methods {
				in.classMethods[cl][m] = true
			}
		}
		methods = methods[:0]
	}
	for fact := range b.AllFacts() {
		if facts.Versions == 0 || fact.V != v {
			carried()
			v = fact.V
			facts.Versions++
			if v.IsObject() {
				facts.Objects++
			}
		}
		args := fact.Args.Decode()
		s := in.sig(fact.Method, len(args))
		s.result |= maskOf(fact.Result.Sort())
		for i, a := range args {
			s.args[i] |= maskOf(a.Sort())
		}
		in.established[fact.Method] |= maskOf(fact.Result.Sort())
		if v.IsObject() {
			methods = append(methods, fact.Method)
			if fact.Method == "isa" {
				in.classesOf[v.Object] = append(in.classesOf[v.Object], fact.Result.String())
			}
		}
	}
	carried()
	for cl := range in.classMethods {
		in.classNames = append(in.classNames, cl)
	}
	sort.Strings(in.classNames)
	facts.Classes = in.classNames
	return facts
}

// inferAllRules recomputes the per-rule variable sort masks under the
// current signature table.
func (in *inference) inferAllRules(c *ctx) {
	in.varSorts = make([]map[term.Var]sortMask, len(c.p.Rules))
	for ri, r := range c.p.Rules {
		in.varSorts[ri] = in.inferRule(r)
	}
}

// inferRule computes the sort mask of every variable of r from its
// positive occurrences, sweeping until the equality propagation is stable.
func (in *inference) inferRule(r term.Rule) map[term.Var]sortMask {
	masks := map[term.Var]sortMask{}
	for v := range r.Vars() {
		masks[v] = maskAny
	}
	meet := func(t term.ObjTerm, m sortMask) {
		if v, ok := t.(term.Var); ok {
			masks[v] &= m
		}
	}
	constrainApp := func(app term.MethodApp) {
		meet(app.Result, in.readMask(app.Method))
		for i, a := range app.Args {
			meet(a, in.readArgMask(app.Method, i))
		}
	}
	// numeric forces every variable of an arithmetic subexpression to num;
	// bare variables of =/!= are handled by the caller.
	var numeric func(e term.Expr)
	numeric = func(e term.Expr) {
		for _, v := range term.ExprVars(e, nil) {
			masks[v] &= maskNum
		}
	}
	constrainBuiltin := func(b term.BuiltinAtom) {
		ordering := b.Op == term.OpLt || b.Op == term.OpLe || b.Op == term.OpGt || b.Op == term.OpGe
		if ordering {
			// The built-ins type-error on non-numeric operands.
			numeric(b.L)
			numeric(b.R)
			return
		}
		// For =/!=, arithmetic subexpressions are numeric; a bare variable
		// against a bare term propagates sorts.
		lv, lBare := b.L.(term.VarExpr)
		rv, rBare := b.R.(term.VarExpr)
		if !lBare {
			if cst, ok := b.L.(term.ConstExpr); ok {
				if rBare && b.Op == term.OpEq {
					masks[rv.V] &= maskOf(cst.OID.Sort())
				}
			} else {
				numeric(b.L)
				if rBare && b.Op == term.OpEq {
					masks[rv.V] &= maskNum
				}
			}
		}
		if !rBare {
			if cst, ok := b.R.(term.ConstExpr); ok {
				if lBare && b.Op == term.OpEq {
					masks[lv.V] &= maskOf(cst.OID.Sort())
				}
			} else {
				numeric(b.R)
				if lBare && b.Op == term.OpEq {
					masks[lv.V] &= maskNum
				}
			}
		}
		if lBare && rBare && b.Op == term.OpEq {
			m := masks[lv.V] & masks[rv.V]
			masks[lv.V], masks[rv.V] = m, m
		}
	}
	sweep := func() {
		for _, l := range r.Body {
			switch a := l.Atom.(type) {
			case term.VersionAtom:
				if !l.Neg {
					constrainApp(a.App)
				}
			case term.UpdateAtom:
				if l.Neg || a.All {
					continue
				}
				constrainApp(a.App)
				if a.Kind == term.Mod && a.NewResult != nil {
					meet(a.NewResult, in.readMask(a.App.Method))
				}
			case term.BuiltinAtom:
				constrainBuiltin(a)
			}
		}
		// Head read positions: del removes and mod rewrites an existing
		// fact, so their old results/args must match the method signature.
		if h := r.Head; !h.All && (h.Kind == term.Del || h.Kind == term.Mod) {
			constrainApp(h.App)
		}
	}
	// Equality chains like X = Y, Y = Z need one sweep per link to
	// propagate; iterate until stable, bounded by the variable count.
	for i := 0; i <= len(masks); i++ {
		before := make(map[term.Var]sortMask, len(masks))
		for v, m := range masks {
			before[v] = m
		}
		sweep()
		stable := true
		for v, m := range masks {
			if before[v] != m {
				stable = false
				break
			}
		}
		if stable {
			break
		}
	}
	return masks
}

// sortsOfTerm returns the sorts a head-written term can produce under the
// rule's inferred masks.
func (in *inference) sortsOfTerm(ri int, t term.ObjTerm) sortMask {
	switch x := t.(type) {
	case term.OID:
		return maskOf(x.Sort())
	case term.Var:
		return in.varSorts[ri][x]
	default:
		return maskAny
	}
}

// contributeHeads folds every head-written result and argument into the
// signature table, reporting whether anything changed.
func (in *inference) contributeHeads(c *ctx) bool {
	changed := false
	grow := func(dst *sortMask, m sortMask) {
		if *dst|m != *dst {
			*dst |= m
			changed = true
		}
	}
	for ri, r := range c.p.Rules {
		h := r.Head
		if h.All || h.V.Any {
			continue
		}
		s := in.sig(h.App.Method, len(h.App.Args))
		switch h.Kind {
		case term.Ins:
			grow(&s.result, in.sortsOfTerm(ri, h.App.Result))
			est := in.established[h.App.Method]
			in.established[h.App.Method] = est | in.sortsOfTerm(ri, h.App.Result)
			if in.established[h.App.Method] != est {
				changed = true
			}
		case term.Mod:
			if h.NewResult != nil {
				grow(&s.result, in.sortsOfTerm(ri, h.NewResult))
			}
		default: // Del reads; no contribution
			continue
		}
		for i, a := range h.App.Args {
			grow(&s.args[i], in.sortsOfTerm(ri, a))
		}
	}
	return changed
}

// reportSortClashes emits V0302 for variables whose sort mask came out
// empty, and records every variable's sorts in the Facts.
func (in *inference) reportSortClashes(c *ctx, f *Facts) {
	for ri, r := range c.p.Rules {
		vars := make([]term.Var, 0, len(in.varSorts[ri]))
		for v := range in.varSorts[ri] {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		for _, v := range vars {
			m := in.varSorts[ri][v]
			f.Rules[ri].Vars = append(f.Rules[ri].Vars, VarFacts{
				Var:   string(v),
				Sorts: m.names(),
				Empty: m == maskNone,
			})
			if m != maskNone || c.unbound[ri][v] {
				continue
			}
			c.add(Diagnostic{
				Code:     CodeSortClash,
				Severity: Warning,
				Pos:      c.rulePos(ri, r.PosOf(v)),
				Rule:     c.labels[ri],
				Message: fmt.Sprintf(
					"incompatible sorts flow into variable %s: its occurrences admit no common sort (num/sym/str), so the rule can never fire", v),
				Witness: string(v),
			})
		}
	}
}

// reportModRetypes emits V0303 for mod heads whose new result's sorts are
// disjoint from every sort the method is established with (base facts and
// ins heads).
func (in *inference) reportModRetypes(c *ctx) {
	for ri, r := range c.p.Rules {
		h := r.Head
		if h.Kind != term.Mod || h.All || h.V.Any || h.NewResult == nil {
			continue
		}
		est := in.established[h.App.Method]
		if est == maskNone {
			continue // method has no established sort to contradict
		}
		nm := in.sortsOfTerm(ri, h.NewResult)
		if nm == maskNone || nm&est != maskNone {
			continue // empty is V0302's finding; overlap is consistent
		}
		c.add(Diagnostic{
			Code:     CodeModRetype,
			Severity: Warning,
			Pos:      r.Pos,
			Rule:     c.labels[ri],
			Message: fmt.Sprintf(
				"mod rewrites method %s to sort {%s} but the method is established with sort {%s}: the method's inferred type changes mid-program",
				h.App.Method, strings.Join(nm.names(), ","), strings.Join(est.names(), ",")),
			Witness: h.App.Method,
		})
	}
}

// reportClassMatches runs receiver-class inference (base required) and
// emits V0301; it also records the class sets in the Facts. Only positive
// path-0 version-terms constrain a receiver: the base state is immutable,
// so those reads are answered by the base alone.
func (in *inference) reportClassMatches(c *ctx, f *Facts) {
	if in.classMethods == nil {
		return
	}
	defined := map[string]bool{term.ExistsMethod: true}
	for _, ms := range in.classMethods {
		for m := range ms {
			defined[m] = true
		}
	}
	for ri, r := range c.p.Rules {
		required := map[term.Var]map[string]bool{} // receiver var -> methods read at path 0
		pinned := map[term.Var]map[string]bool{}   // receiver var -> ground isa results
		for _, l := range r.Body {
			a, ok := l.Atom.(term.VersionAtom)
			if l.Neg || !ok || a.V.Any || a.V.Path.Len() != 0 {
				continue
			}
			v, ok := a.V.Base.(term.Var)
			if !ok {
				in.checkGroundReceiver(c, ri, l, a, defined)
				continue
			}
			if a.App.Method == term.ExistsMethod {
				continue
			}
			if required[v] == nil {
				required[v] = map[string]bool{}
			}
			required[v][a.App.Method] = true
			if a.App.Method == "isa" {
				if cls, ok := a.App.Result.(term.OID); ok && cls.Sort() == term.SortSym {
					if pinned[v] == nil {
						pinned[v] = map[string]bool{}
					}
					pinned[v][cls.String()] = true
				}
			}
		}
		vars := make([]term.Var, 0, len(required))
		for v := range required {
			vars = append(vars, v)
		}
		sort.Slice(vars, func(i, j int) bool { return vars[i] < vars[j] })
		for _, v := range vars {
			methods := sortedKeys(required[v])
			var classes []string
			for _, cl := range in.classNames {
				if !containsAll(in.classMethods[cl], methods) {
					continue
				}
				if pin := pinned[v]; pin != nil && !pin[cl] {
					continue
				}
				classes = append(classes, cl)
			}
			in.recordClasses(f, ri, v, classes)
			if len(classes) > 0 {
				continue
			}
			// An individually-unknown method is V0202's finding.
			allDefined := true
			for _, m := range methods {
				if !defined[m] {
					allDefined = false
				}
			}
			if !allDefined {
				continue
			}
			c.add(Diagnostic{
				Code:     CodeNoClass,
				Severity: Warning,
				Pos:      c.rulePos(ri, r.PosOf(v)),
				Rule:     c.labels[ri],
				Message: fmt.Sprintf(
					"receiver %s matches no class: no class of the base carries {%s} together, so the rule can never fire",
					v, strings.Join(methods, ", ")),
				Witness: strings.Join(methods, ","),
			})
		}
	}
}

// checkGroundReceiver flags a positive path-0 read on a ground receiver
// that the (immutable) base state cannot answer. A method no object of
// the base defines is V0202's finding and is not repeated here.
func (in *inference) checkGroundReceiver(c *ctx, ri int, l term.Literal, a term.VersionAtom, defined map[string]bool) {
	oid, ok := a.V.Base.(term.OID)
	if !ok || a.App.Method == term.ExistsMethod || !defined[a.App.Method] {
		return
	}
	for range c.opts.Base.OfMethod(term.GVID{Object: oid}, a.App.Method) {
		return // the receiver carries the method
	}
	c.add(Diagnostic{
		Code:     CodeNoClass,
		Severity: Warning,
		Pos:      c.rulePos(ri, l.Pos),
		Rule:     c.labels[ri],
		Message: fmt.Sprintf(
			"object %s has no %s fact in the base, and base states never change: the literal can never match",
			oid, a.App.Method),
		Witness: oid.String() + "." + a.App.Method,
	})
}

// recordClasses attaches the class set to the variable's VarFacts entry.
func (in *inference) recordClasses(f *Facts, ri int, v term.Var, classes []string) {
	for i := range f.Rules[ri].Vars {
		vf := &f.Rules[ri].Vars[i]
		if vf.Var == string(v) {
			vf.Classes = classes
			if len(classes) == 0 {
				vf.Empty = true
			}
			return
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func containsAll(have map[string]bool, want []string) bool {
	for _, m := range want {
		if !have[m] {
			return false
		}
	}
	return true
}
