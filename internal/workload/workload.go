// Package workload generates the synthetic object bases and programs the
// experiment suite runs: enterprise org charts for the Figure 2 workload,
// genealogies for the recursive ancestors workload, version-chain programs
// for the Figure 1 workload, touched-fraction bases for the frame-problem
// experiment, and layered random programs for the stratification
// benchmark. All generators are deterministic given their seed.
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// Employee is one generated employee record.
type Employee struct {
	Name    string
	Manager bool
	Boss    string // empty for roots
	Salary  int64
}

// EnterpriseSpec parameterizes the enterprise workload.
type EnterpriseSpec struct {
	// Employees is the total head count.
	Employees int
	// ManagerFraction is the share of managers (default 0.1). Managers are
	// the first ceil(fraction*n) employees and form the boss forest.
	ManagerFraction float64
	// Seed drives salary assignment and boss selection.
	Seed int64
}

// Generate produces the employee records.
func (s EnterpriseSpec) Generate() []Employee {
	if s.ManagerFraction <= 0 {
		s.ManagerFraction = 0.1
	}
	rng := rand.New(rand.NewSource(s.Seed))
	n := s.Employees
	managers := int(float64(n)*s.ManagerFraction + 0.999)
	if managers < 1 && n > 0 {
		managers = 1
	}
	emps := make([]Employee, n)
	for i := range emps {
		emps[i].Name = fmt.Sprintf("e%d", i)
		emps[i].Salary = 1000 + rng.Int63n(4000)
		if i < managers {
			emps[i].Manager = true
			if i > 0 {
				emps[i].Boss = emps[rng.Intn(i)].Name
			}
		} else {
			emps[i].Boss = emps[rng.Intn(managers)].Name
		}
	}
	return emps
}

// ObjectBase renders the employees as a verlog object base with the
// Figure 2 schema: isa -> empl, pos -> mgr for managers, boss -> b,
// sal -> s.
func (s EnterpriseSpec) ObjectBase() *objectbase.Base {
	return EmployeesToBase(s.Generate())
}

// EmployeesToBase renders employee records as an object base.
func EmployeesToBase(emps []Employee) *objectbase.Base {
	b := objectbase.New()
	empl := term.Sym("empl")
	mgr := term.Sym("mgr")
	for _, e := range emps {
		o := term.Sym(e.Name)
		v := term.GVID{Object: o}
		b.Insert(term.NewFact(v, "isa", empl))
		b.Insert(term.NewFact(v, "sal", term.Int(e.Salary)))
		if e.Manager {
			b.Insert(term.NewFact(v, "pos", mgr))
		}
		if e.Boss != "" {
			b.Insert(term.NewFact(v, "boss", term.Sym(e.Boss)))
		}
		b.EnsureObject(o)
	}
	return b
}

// EnterpriseProgram is the four-rule update of Section 2.3 / Figure 2.
const EnterpriseProgram = `
rule1: mod[E].sal -> (S, S') <-
    E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <-
    E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <-
    mod(E).isa -> empl / boss -> B / sal -> SE,
    mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <-
    mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`

// BulkRaiseProgram is the two-rule raise of the end-to-end bulk_raise
// workload: additive, so salaries stay integers, and it touches every
// employee, so the head it leaves is a new root.
const BulkRaiseProgram = `mgr: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S + 2.
oth: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S + 1.`

// SalaryRaiseProgram is the single-rule update of Section 2.1.
const SalaryRaiseProgram = `
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1.
`

// AncestorsProgram is the recursive closure of Section 2.3.
const AncestorsProgram = `
base: ins[X].anc -> P <- X.isa -> person / parents -> P.
step: ins[X].anc -> P <- ins(X).isa -> person / anc -> A,
                         A.isa -> person / parents -> P.
`

// GenealogySpec parameterizes the genealogy workload: a forest of family
// trees, each Generations deep with Branching children per person.
type GenealogySpec struct {
	Generations int
	Branching   int
	Roots       int
}

// ObjectBase renders the genealogy: every person isa -> person, children
// carry parents -> parent.
func (s GenealogySpec) ObjectBase() *objectbase.Base {
	b := objectbase.New()
	person := term.Sym("person")
	if s.Roots <= 0 {
		s.Roots = 1
	}
	for root := 0; root < s.Roots; root++ {
		prevGen := []string{fmt.Sprintf("p%d_0_0", root)}
		addPerson(b, prevGen[0], person)
		id := 1
		for g := 1; g < s.Generations; g++ {
			var gen []string
			for _, parent := range prevGen {
				for c := 0; c < s.Branching; c++ {
					name := fmt.Sprintf("p%d_%d_%d", root, g, id)
					id++
					addPerson(b, name, person)
					b.Insert(term.NewFact(term.GVID{Object: term.Sym(name)}, "parents", term.Sym(parent)))
					gen = append(gen, name)
				}
			}
			prevGen = gen
		}
	}
	return b
}

func addPerson(b *objectbase.Base, name string, person term.OID) {
	o := term.Sym(name)
	b.Insert(term.NewFact(term.GVID{Object: o}, "isa", person))
	b.EnsureObject(o)
}

// Persons returns the number of persons the spec generates.
func (s GenealogySpec) Persons() int {
	if s.Roots <= 0 {
		s.Roots = 1
	}
	perRoot := 0
	gen := 1
	for g := 0; g < s.Generations; g++ {
		perRoot += gen
		gen *= s.Branching
	}
	return perRoot * s.Roots
}

// AncestorPairs returns the expected size of the anc closure: for each
// person, the number of its proper ancestors.
func (s GenealogySpec) AncestorPairs() int {
	if s.Roots <= 0 {
		s.Roots = 1
	}
	pairs := 0
	gen := 1
	for g := 0; g < s.Generations; g++ {
		pairs += gen * g // each person in generation g has g ancestors
		gen *= s.Branching
	}
	return pairs * s.Roots
}

// ChainProgram builds the Figure 1 workload: k consecutive groups of
// modify updates on every item, each group transforming the previous
// version. Applying it to an item with counter c yields the version
// mod^k(item) with counter c+k.
func ChainProgram(k int) string {
	var b strings.Builder
	for i := 1; i <= k; i++ {
		prefix := strings.Repeat("mod(", i-1)
		suffix := strings.Repeat(")", i-1)
		fmt.Fprintf(&b, "g%d: mod[%sX%s].counter -> (C, C') <- %sX%s.isa -> item, %sX%s.counter -> C, C' = C + 1.\n",
			i, prefix, suffix, prefix, suffix, prefix, suffix)
	}
	return b.String()
}

// Items builds a base of n items with counter 0.
func Items(n int) *objectbase.Base {
	b := objectbase.New()
	item := term.Sym("item")
	for i := 0; i < n; i++ {
		o := term.Sym(fmt.Sprintf("item%d", i))
		v := term.GVID{Object: o}
		b.Insert(term.NewFact(v, "isa", item))
		b.Insert(term.NewFact(v, "counter", term.Int(0)))
		b.EnsureObject(o)
	}
	return b
}

// TouchedSpec parameterizes the frame-problem workload (E8): Objects
// objects, each carrying Methods payload facts; the program touches the
// objects whose group id falls below a threshold.
type TouchedSpec struct {
	Objects int
	Methods int
}

// ObjectBase renders the payload base. Every object i carries
// group -> i mod 100 plus Methods payload facts.
func (s TouchedSpec) ObjectBase() *objectbase.Base {
	b := objectbase.New()
	item := term.Sym("item")
	for i := 0; i < s.Objects; i++ {
		o := term.Sym(fmt.Sprintf("obj%d", i))
		v := term.GVID{Object: o}
		b.Insert(term.NewFact(v, "isa", item))
		b.Insert(term.NewFact(v, "group", term.Int(int64(i%100))))
		b.Insert(term.NewFact(v, "val", term.Int(int64(i))))
		for m := 0; m < s.Methods; m++ {
			b.Insert(term.NewFact(v, fmt.Sprintf("payload%d", m), term.Int(int64(m))))
		}
		b.EnsureObject(o)
	}
	return b
}

// TouchProgram returns a program touching the objects whose group id is
// below percent (0..100): with groups uniform mod 100, percent approximates
// the touched fraction.
func TouchProgram(percent int) string {
	return fmt.Sprintf(
		"touch: mod[X].val -> (V, V') <- X.isa -> item, X.group -> G, G < %d, X.val -> V, V' = V + 1.\n",
		percent)
}

// TouchFirstProgram returns a program touching exactly the first k objects
// (those with val < k) regardless of base size — the control workload for
// the frame-problem experiment: copy cost must track k, not the base.
func TouchFirstProgram(k int) string {
	return fmt.Sprintf(
		"touch: mod[X].val -> (V, V') <- X.isa -> item, X.val -> V, V < %d, V' = V + 1.\n", k)
}

// LayeredProgram generates a stratifiable program of n rules for the
// stratification benchmark: rule i inserts on a version chain of depth
// (i mod maxDepth)+1 reading the previous depth, producing long dependency
// chains under conditions (a) and (b).
func LayeredProgram(n, maxDepth int) string {
	if maxDepth < 1 {
		maxDepth = 1
	}
	var b strings.Builder
	for i := 0; i < n; i++ {
		d := i%maxDepth + 1
		head := vidOfDepth("X", d)
		body := vidOfDepth("X", d-1)
		fmt.Fprintf(&b, "r%d: ins[%s].m%d -> a <- %s.m%d -> a.\n", i, head, i%7, body, (i+3)%7)
	}
	return b.String()
}

func vidOfDepth(base string, d int) string {
	return strings.Repeat("ins(", d) + base + strings.Repeat(")", d)
}
