package term

import (
	"fmt"
	"strings"
)

// Rule is an update-rule H <- B1, ..., Bk (k >= 0). The head is always an
// update-term; bodies are conjunctions of possibly negated atoms. With an
// empty body the rule is an update-fact.
type Rule struct {
	Head UpdateAtom
	Body []Literal
	// Name is an optional label ("rule1") used in diagnostics and traces.
	Name string
	// Line is the 1-based source line of the rule, 0 if synthetic.
	Line int
	// Pos is the source position of the rule head (after the label, if
	// any). Zero for programmatically built rules.
	Pos Pos
	// VarPos records the first source occurrence of each variable in the
	// rule, for positioned diagnostics. Nil for programmatic rules.
	VarPos map[Var]Pos
}

// PosOf returns the recorded first-occurrence position of v, falling back
// to the rule position for programmatic rules.
func (r Rule) PosOf(v Var) Pos {
	if p, ok := r.VarPos[v]; ok {
		return p
	}
	return r.Pos
}

// Label returns the rule's name, or a positional fallback.
func (r Rule) Label(index int) string {
	if r.Name != "" {
		return r.Name
	}
	if r.Line > 0 {
		return fmt.Sprintf("rule@line%d", r.Line)
	}
	return fmt.Sprintf("rule#%d", index+1)
}

// String renders the rule in concrete syntax, terminated by a period.
func (r Rule) String() string {
	var b strings.Builder
	b.WriteString(r.Head.String())
	if len(r.Body) > 0 {
		b.WriteString(" <- ")
		for i, l := range r.Body {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(l.String())
		}
	}
	b.WriteByte('.')
	return b.String()
}

// Vars returns the set of variables occurring anywhere in the rule.
func (r Rule) Vars() map[Var]bool {
	vs := map[Var]bool{}
	collect := func(t ObjTerm) {
		if v, ok := t.(Var); ok {
			vs[v] = true
		}
	}
	collectApp := func(m MethodApp) {
		for _, a := range m.Args {
			collect(a)
		}
		if m.Result != nil {
			collect(m.Result)
		}
	}
	collectAtom := func(a Atom) {
		switch x := a.(type) {
		case VersionAtom:
			collect(x.V.Base)
			collectApp(x.App)
		case UpdateAtom:
			collect(x.V.Base)
			if !x.All {
				collectApp(x.App)
				if x.NewResult != nil {
					collect(x.NewResult)
				}
			}
		case BuiltinAtom:
			for _, v := range ExprVars(x.R, ExprVars(x.L, nil)) {
				vs[v] = true
			}
		}
	}
	collectAtom(r.Head)
	for _, l := range r.Body {
		collectAtom(l.Atom)
	}
	return vs
}

// Program is an update-program: a finite set of update-rules, kept in
// source order.
type Program struct {
	Rules []Rule
}

// String renders the program, one rule per line.
func (p *Program) String() string {
	var b strings.Builder
	for _, r := range p.Rules {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// RuleLabels returns a label per rule, for diagnostics.
func (p *Program) RuleLabels() []string {
	out := make([]string, len(p.Rules))
	for i, r := range p.Rules {
		out[i] = r.Label(i)
	}
	return out
}
