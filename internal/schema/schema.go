// Package schema implements the optional typing layer the paper connects
// to in Section 2.4: "The way we consider inserts and deletions would
// require changes of corresponding class-definitions in a strongly typed
// environment" (citing Skarra/Zdonik's type evolution work). verlog's core
// is untyped, exactly like the paper's language; this package lets a user
// declare class signatures, check an object base against them, and report
// how an update changed which methods are populated per class — the
// schema-evolution view of an update program.
//
// A schema is written in the fact syntax, one method signature per fact:
//
//	empl.sal  -> num.
//	empl.pos  -> sym.
//	empl.boss -> empl.   % reference: results must be objects of class empl
//
// Result types are num, sym, str, any, or a class name. Objects belong to
// class c when they carry isa -> c.
package schema

import (
	"fmt"
	"sort"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// Schema maps class name -> method name -> expected result type.
type Schema struct {
	classes map[string]map[string]TypeRef
}

// TypeRef is an expected result type.
type TypeRef struct {
	// Sort is the expected OID sort for value types; meaningful only when
	// Class is empty.
	Sort string // "num", "sym", "str", "any"
	// Class, when set, requires results to be objects of that class.
	Class string
}

func (t TypeRef) String() string {
	if t.Class != "" {
		return t.Class
	}
	return t.Sort
}

// valueSorts are the built-in result types.
var valueSorts = map[string]bool{"num": true, "sym": true, "str": true, "any": true}

// Parse reads a schema. Facts must have the shape class.method -> type
// with no version path and no arguments.
func Parse(src, file string) (*Schema, error) {
	facts, err := parser.Facts(src, file)
	if err != nil {
		return nil, err
	}
	s := &Schema{classes: map[string]map[string]TypeRef{}}
	declaredClasses := map[string]bool{}
	for _, f := range facts {
		if f.V.Path.Len() > 0 || !f.Args.Empty() {
			return nil, fmt.Errorf("schema: %s: signatures are class.method -> type facts", f)
		}
		if f.V.Object.Sort() != term.SortSym || f.Result.Sort() != term.SortSym {
			return nil, fmt.Errorf("schema: %s: class and type must be symbols", f)
		}
		if f.Method == term.ExistsMethod {
			return nil, fmt.Errorf("schema: the system method %q needs no declaration", term.ExistsMethod)
		}
		class := f.V.Object.Name()
		declaredClasses[class] = true
		ms, ok := s.classes[class]
		if !ok {
			ms = map[string]TypeRef{}
			s.classes[class] = ms
		}
		if prev, dup := ms[f.Method]; dup {
			return nil, fmt.Errorf("schema: %s.%s declared twice (%s and %s)", class, f.Method, prev, f.Result.Name())
		}
		tn := f.Result.Name()
		if valueSorts[tn] {
			ms[f.Method] = TypeRef{Sort: tn}
		} else {
			ms[f.Method] = TypeRef{Class: tn}
		}
	}
	// Class references must resolve to declared classes.
	for class, ms := range s.classes {
		for m, t := range ms {
			if t.Class != "" && !declaredClasses[t.Class] {
				return nil, fmt.Errorf("schema: %s.%s references undeclared class %s", class, m, t.Class)
			}
		}
	}
	return s, nil
}

// Classes returns the declared class names, sorted.
func (s *Schema) Classes() []string {
	out := make([]string, 0, len(s.classes))
	for c := range s.classes {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Violation is one schema check failure.
type Violation struct {
	Object term.OID
	Class  string
	Method string
	Result term.OID
	// Want describes the expected type; empty when the method itself is
	// undeclared.
	Want string
}

func (v Violation) String() string {
	if v.Want == "" {
		return fmt.Sprintf("%s (class %s): method %s is not declared", v.Object, v.Class, v.Method)
	}
	return fmt.Sprintf("%s (class %s): %s -> %s does not conform to %s", v.Object, v.Class, v.Method, v.Result, v.Want)
}

// Options configures checking.
type Options struct {
	// RequireDeclared flags method applications on classed objects whose
	// method has no signature (closed-schema checking).
	RequireDeclared bool
}

// Check validates every classed object of the base against the schema.
// Objects whose isa classes are all undeclared are ignored; the isa and
// exists methods are exempt.
func (s *Schema) Check(base *objectbase.Base, opts Options) []Violation {
	var out []Violation
	for _, o := range base.Objects() {
		v := term.GVID{Object: o}
		var classes []string
		for r := range base.Results(v, term.MethodKey{Method: "isa"}) {
			if r.Sort() == term.SortSym {
				if _, ok := s.classes[r.Name()]; ok {
					classes = append(classes, r.Name())
				}
			}
		}
		if len(classes) == 0 {
			continue
		}
		sort.Strings(classes)
		for f := range base.FactsOf(v) {
			if f.Method != term.ExistsMethod && f.Method != "isa" {
				out = append(out, s.checkApp(base, classes, f, opts)...)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (s *Schema) checkApp(base *objectbase.Base, classes []string, f term.Fact, opts Options) []Violation {
	var out []Violation
	declaredSomewhere := false
	for _, class := range classes {
		t, ok := s.classes[class][f.Method]
		if !ok {
			continue
		}
		declaredSomewhere = true
		if !conforms(base, f.Result, t) {
			out = append(out, Violation{
				Object: f.V.Object, Class: class, Method: f.Method,
				Result: f.Result, Want: t.String(),
			})
		}
	}
	if !declaredSomewhere && opts.RequireDeclared {
		out = append(out, Violation{
			Object: f.V.Object, Class: strings.Join(classes, ","), Method: f.Method, Result: f.Result,
		})
	}
	return out
}

func conforms(base *objectbase.Base, r term.OID, t TypeRef) bool {
	if t.Class != "" {
		if r.Sort() != term.SortSym {
			return false
		}
		return base.Has(term.NewFact(term.GVID{Object: r}, "isa", term.Sym(t.Class)))
	}
	switch t.Sort {
	case "num":
		return r.Sort() == term.SortNum
	case "sym":
		return r.Sort() == term.SortSym
	case "str":
		return r.Sort() == term.SortStr
	default: // any
		return true
	}
}

// Evolution is the schema-evolution view of one update: per class, the
// methods that became populated or unpopulated across the update — the
// changes a strongly typed system would have to mirror in its class
// definitions (Section 2.4's observation).
type Evolution struct {
	Class  string
	Gained []string // methods with instances after but not before
	Lost   []string // methods with instances before but not after
}

// EvolutionReport compares which declared-class methods are populated in
// before vs after.
func (s *Schema) EvolutionReport(before, after *objectbase.Base) []Evolution {
	var out []Evolution
	for _, class := range s.Classes() {
		b := populatedMethods(before, class)
		a := populatedMethods(after, class)
		var ev Evolution
		ev.Class = class
		for m := range a {
			if !b[m] {
				ev.Gained = append(ev.Gained, m)
			}
		}
		for m := range b {
			if !a[m] {
				ev.Lost = append(ev.Lost, m)
			}
		}
		sort.Strings(ev.Gained)
		sort.Strings(ev.Lost)
		if len(ev.Gained)+len(ev.Lost) > 0 {
			out = append(out, ev)
		}
	}
	return out
}

// populatedMethods returns the methods carried by any object of the class.
func populatedMethods(base *objectbase.Base, class string) map[string]bool {
	out := map[string]bool{}
	for _, o := range base.Objects() {
		v := term.GVID{Object: o}
		if !base.Has(term.NewFact(v, "isa", term.Sym(class))) {
			continue
		}
		for f := range base.FactsOf(v) {
			if f.Method != term.ExistsMethod && f.Method != "isa" {
				out[f.Method] = true
			}
		}
	}
	return out
}
