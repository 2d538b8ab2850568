// Package analysis is a pass-based static analyzer for verlog update
// programs. It produces structured, positioned diagnostics with stable
// codes instead of failing on the first violation: the safety conditions of
// Section 2.3 and the stratification conditions of Section 4 are
// re-surfaced as diagnostic-emitting passes that collect every violation,
// and a family of lint passes catches program shapes that are legal but
// almost certainly wrong (rules that can never fire, duplicate rules,
// single-occurrence variables, updates on provably-emptied versions,
// version-linearity hazards, suspicious version-id nesting).
//
// Every diagnostic carries a stable code (see docs/ANALYSIS.md for the
// catalogue), a severity, a file:line:col position threaded from the lexer
// through the parser into the term structures, a human message and — where
// one exists — a machine-oriented witness (the unbound variable, the
// dependency cycle, the conflicting rule pair).
//
// The analyzer is surfaced as the `verlog vet` CLI subcommand, the
// POST /v1/t/{tenant}/check server endpoint, and the diagnostics attached
// to apply rejections.
package analysis

import (
	"fmt"
	"sort"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Severity ranks a diagnostic.
type Severity uint8

// The three severities. Error-severity diagnostics are exactly the
// conditions under which the evaluator rejects the program; warnings and
// infos never block evaluation.
const (
	Error Severity = iota
	Warning
	Info
)

func (s Severity) String() string {
	switch s {
	case Error:
		return "error"
	case Warning:
		return "warning"
	case Info:
		return "info"
	default:
		return fmt.Sprintf("Severity(%d)", uint8(s))
	}
}

// MarshalText renders the severity as its lower-case name in JSON.
func (s Severity) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// UnmarshalText parses a severity name.
func (s *Severity) UnmarshalText(b []byte) error {
	switch string(b) {
	case "error":
		*s = Error
	case "warning":
		*s = Warning
	case "info":
		*s = Info
	default:
		return fmt.Errorf("analysis: unknown severity %q", b)
	}
	return nil
}

// The stable diagnostic codes. Errors are V00xx, warnings V01xx, infos
// V02xx. Codes are part of the tool contract: clients and editors branch
// on them; they are never renumbered, only retired.
const (
	// CodeUnboundVar: a variable is not limited by any positive body term.
	CodeUnboundVar = "V0001"
	// CodeNotStratifiable: a rule cycle violates conditions (a)-(d).
	CodeNotStratifiable = "V0002"
	// CodeExistsHead: the reserved exists method in a rule head.
	CodeExistsHead = "V0003"
	// CodeWildcard: the any(...) wildcard in an update-rule.
	CodeWildcard = "V0004"
	// CodeDeleteAll: delete-all with a non-del kind, or in a rule body.
	CodeDeleteAll = "V0005"
	// CodeModPair: a modify without a result pair, or a pair elsewhere.
	CodeModPair = "V0006"
	// CodeParse: the source did not parse.
	CodeParse = "V0007"
	// CodeNeverFires: a positive body term tests a version no head produces.
	CodeNeverFires = "V0101"
	// CodeDuplicateRule: two rules with identical head and body.
	CodeDuplicateRule = "V0102"
	// CodeSingleVar: a variable occurring exactly once (typo heuristic).
	CodeSingleVar = "V0103"
	// CodeEmptiedVersion: a del/mod head reads a version a delete-all empties.
	CodeEmptiedVersion = "V0104"
	// CodeLinearityClash: two heads derive incomparable versions of one object.
	CodeLinearityClash = "V0105"
	// CodeDeepVID: a head version-id-term nests suspiciously many updates.
	CodeDeepVID = "V0106"
	// CodeUnreadMethod: a method produced by heads but read by no body.
	CodeUnreadMethod = "V0201"
	// CodeUnknownMethod: a body method defined neither by the base nor a head.
	CodeUnknownMethod = "V0202"

	// The V03xx codes are the deep (semantic) tier, emitted only by Deep:
	// abstract interpretation over the class/sort lattice, the cost model,
	// and the boundedness analysis. All are warnings or infos — the deep
	// tier never rejects a program the engine accepts.

	// CodeNoClass: a receiver's required method set matches no class of the
	// supplied base, or a ground receiver lacks a read method.
	CodeNoClass = "V0301"
	// CodeSortClash: incompatible sorts (num/sym/str) flow into one variable.
	CodeSortClash = "V0302"
	// CodeModRetype: a mod head writes a result whose inferred sorts are
	// disjoint from every sort the method is established with.
	CodeModRetype = "V0303"
	// CodeNonlinearRecursion: a recursive rule joins two or more distinct
	// recursively-derived version-id-terms, so derived-fact growth in its
	// stratum need not be linear in the input.
	CodeNonlinearRecursion = "V0304"
	// CodeCrossProduct: adjacent generators in the chosen join order share
	// no bound variables, multiplying their estimated cardinalities.
	CodeCrossProduct = "V0305"
	// CodeIndexlessRecursion: a recursive rule's compiled plan contains no
	// index probe, so every fixpoint iteration rescans full populations.
	CodeIndexlessRecursion = "V0306"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	// Code is the stable machine-readable code ("V0001").
	Code string `json:"code"`
	// Severity is error, warning or info.
	Severity Severity `json:"severity"`
	// Pos is the source position the finding anchors to (zero for
	// programmatically built rules, rendered as "-").
	Pos term.Pos `json:"position"`
	// Rule is the label of the rule the finding concerns, if any.
	Rule string `json:"rule,omitempty"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// Witness is the machine-oriented evidence: the unbound variable name,
	// the dependency-cycle path, the conflicting pair, the method name.
	Witness string `json:"witness,omitempty"`
}

// String renders "file:line:col: severity V0001: message".
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Pos, d.Severity, d.Code, d.Message)
}

// Options configures an analysis run.
type Options struct {
	// Base optionally supplies the object base the program will run
	// against. With a base, the analyzer knows the defined method
	// vocabulary (enabling V0202) and which deep versions already exist
	// (suppressing false V0101s).
	Base *objectbase.Base
	// MaxDepth is the head version-id nesting depth above which V0106
	// fires; 0 means the default of 4.
	MaxDepth int
}

const defaultMaxDepth = 4

// Program runs every pass over a parsed program and returns the collected
// diagnostics, sorted by position then code. It never fails: a broken
// program yields error-severity diagnostics, not an error.
func Program(p *term.Program, opts Options) []Diagnostic {
	if opts.MaxDepth <= 0 {
		opts.MaxDepth = defaultMaxDepth
	}
	c := &ctx{p: p, opts: opts, labels: p.RuleLabels()}
	for _, pass := range passes {
		pass(c)
	}
	Sort(c.diags)
	return c.diags
}

// Source parses program text and analyzes it. A syntax error yields a
// single CodeParse diagnostic (the parser stops at the first error) and a
// nil program.
func Source(src, file string, opts Options) ([]Diagnostic, *term.Program) {
	p, err := parser.Program(src, file)
	if err != nil {
		return []Diagnostic{parseDiagnostic(err)}, nil
	}
	return Program(p, opts), p
}

// parseDiagnostic converts a parse error into the CodeParse diagnostic.
func parseDiagnostic(err error) Diagnostic {
	d := Diagnostic{Code: CodeParse, Severity: Error, Message: err.Error()}
	if se, ok := err.(*parser.SyntaxError); ok {
		d.Pos = se.Pos()
		d.Message = se.Msg
	}
	return d
}

// HasErrors reports whether any diagnostic has error severity.
func HasErrors(ds []Diagnostic) bool {
	for _, d := range ds {
		if d.Severity == Error {
			return true
		}
	}
	return false
}

// Sort orders diagnostics by file, line, column, code, then message, so
// output is deterministic and reads in source order.
func Sort(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.File != b.Pos.File {
			return a.Pos.File < b.Pos.File
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Col != b.Pos.Col {
			return a.Pos.Col < b.Pos.Col
		}
		if a.Code != b.Code {
			return a.Code < b.Code
		}
		return a.Message < b.Message
	})
}

// ctx carries one analysis run across passes.
type ctx struct {
	p      *term.Program
	opts   Options
	labels []string
	diags  []Diagnostic
	// unbound marks (rule index, variable) pairs already reported as
	// V0001, so the single-occurrence heuristic does not double-report.
	unbound map[int]map[term.Var]bool
	// wildcard is set when any rule contains the any(...) wildcard (a
	// V0004 error): version-id-based passes are skipped, since wildcard
	// terms have no well-defined update target.
	wildcard bool
	// stratDone/strat/stratBad cache one strata.Compute run, shared by the
	// strata pass and the deep tier (edge construction is the expensive
	// part of analyzing large programs).
	stratDone bool
	strat     *strata.Assignment
	stratBad  []*strata.NotStratifiableError
}

// stratification computes (once) the stratification or its violations.
// Wildcard programs have no well-defined targets; both results stay nil.
func (c *ctx) stratification() (*strata.Assignment, []*strata.NotStratifiableError) {
	if !c.stratDone {
		c.stratDone = true
		if !c.wildcard {
			c.strat, c.stratBad = strata.Compute(c.p)
		}
	}
	return c.strat, c.stratBad
}

func (c *ctx) add(d Diagnostic) { c.diags = append(c.diags, d) }

// rulePos falls back to the rule position for invalid positions.
func (c *ctx) rulePos(ri int, pos term.Pos) term.Pos {
	if pos.IsValid() {
		return pos
	}
	return c.p.Rules[ri].Pos
}
