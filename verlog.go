package verlog

import (
	"verlog/internal/analysis"
	"verlog/internal/core"
	"verlog/internal/derived"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/schema"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Re-exported types. The implementation lives in internal packages; these
// aliases form the stable public surface.
type (
	// Program is a parsed update-program.
	Program = term.Program
	// Rule is one update-rule of a program.
	Rule = term.Rule
	// ObjectBase is a set of ground version-terms, indexed for evaluation.
	ObjectBase = objectbase.Base
	// Fact is one ground version-term.
	Fact = term.Fact
	// OID is an object identity.
	OID = term.OID
	// GVID is a ground version identity.
	GVID = term.GVID
	// Result is the outcome of applying a program: the fixpoint base with
	// all versions, the updated object base, and run statistics.
	Result = eval.Result
	// Binding is one answer to a Query.
	Binding = eval.Binding
	// Stratification is a computed strata assignment.
	Stratification = strata.Assignment
	// Option configures Apply and NewEngine.
	Option = core.Option
	// Engine applies programs under fixed options.
	Engine = core.Engine
	// Update is one fired ground update (visible in traces).
	Update = eval.Update
	// TraceEvent records one fired update with rule, stratum and iteration.
	TraceEvent = eval.TraceEvent
	// RuleStat is one rule's firing statistics from a traced run (see
	// Result.RuleStats).
	RuleStat = eval.RuleStat
	// Span is one timed operation of an evaluation span tree (WithSpan).
	Span = obs.Span
	// SpanTrace is a whole span tree with identity and metadata; its Root
	// is what WithSpan hangs the evaluation spans off.
	SpanTrace = obs.Trace
	// Diff is the fact-level difference between two object bases.
	Diff = objectbase.Diff
)

// Re-exported options.
var (
	// WithTrace records every fired update in Result.Trace.
	WithTrace = core.WithTrace
	// WithMaxIterations bounds T_P applications per stratum.
	WithMaxIterations = core.WithMaxIterations
	// WithForbidNewObjects restricts updates to objects already in the base.
	WithForbidNewObjects = core.WithForbidNewObjects
	// WithSpan collects the evaluation as a span tree under the given span:
	// safety, stratification, every stratum's iterations down to per-rule
	// matching, and the copy phase. Use NewSpanTrace to build the tree.
	WithSpan = core.WithSpan
	// NewSpanTrace starts a named span tree; pass its Root to WithSpan and
	// call Finish after Apply returns.
	NewSpanTrace = obs.NewTrace
)

// Sym returns the symbol OID with the given name.
func Sym(name string) OID { return term.Sym(name) }

// Int returns the numeric OID for i.
func Int(i int64) OID { return term.Int(i) }

// Str returns the string-valued OID for s.
func Str(s string) OID { return term.Str(s) }

// NewEngine returns an engine that applies programs under the given
// options.
func NewEngine(opts ...Option) *Engine { return core.New(opts...) }

// ParseProgram parses an update-program in concrete syntax.
func ParseProgram(src string) (*Program, error) { return parser.Program(src, "program") }

// ParseProgramFile parses an update-program, naming the source in errors.
func ParseProgramFile(src, name string) (*Program, error) { return parser.Program(src, name) }

// ParseObjectBase parses an object base in concrete syntax and seeds the
// exists system method for every object.
func ParseObjectBase(src string) (*ObjectBase, error) { return parser.ObjectBase(src, "objectbase") }

// ParseObjectBaseFile parses an object base, naming the source in errors.
func ParseObjectBaseFile(src, name string) (*ObjectBase, error) {
	return parser.ObjectBase(src, name)
}

// NewObjectBase returns an empty object base.
func NewObjectBase() *ObjectBase { return objectbase.New() }

// Apply checks p (safety and stratifiability) and evaluates it bottom-up on
// ob. It returns the fixpoint base (all versions), the updated object base,
// and statistics. ob is not modified.
func Apply(ob *ObjectBase, p *Program, opts ...Option) (*Result, error) {
	return core.New(opts...).Apply(ob, p)
}

// Check validates a program without running it: safety of every rule and
// existence of a stratification fulfilling the paper's conditions (a)-(d).
func Check(p *Program) (*Stratification, error) { return core.New().Check(p) }

// Diagnostic is one finding of the static analyzer: a stable code
// ("V0001"), a severity, a source position and a witness. See
// docs/ANALYSIS.md for the catalogue of codes.
type Diagnostic = analysis.Diagnostic

// AnalysisOptions configures Analyze: an optional object base for the
// vocabulary-aware passes and the V0106 depth threshold.
type AnalysisOptions = analysis.Options

// Pos is a file:line:col source position, threaded by the parser into
// rules and diagnostics.
type Pos = term.Pos

// Severity levels of a Diagnostic. Error-severity diagnostics are exactly
// the conditions under which Apply rejects the program.
const (
	SeverityError   = analysis.Error
	SeverityWarning = analysis.Warning
	SeverityInfo    = analysis.Info
)

// Analyze runs every static-analysis pass over a parsed program and
// returns the diagnostics in source order. Unlike Check it never fails —
// a broken program yields error-severity diagnostics — and it reports all
// defects in one run, plus lint findings Check does not perform.
func Analyze(p *Program, opts AnalysisOptions) []Diagnostic { return analysis.Program(p, opts) }

// AnalyzeSource parses and analyzes program text in one step; a syntax
// error becomes a single V0007 diagnostic and a nil program.
func AnalyzeSource(src, name string, opts AnalysisOptions) ([]Diagnostic, *Program) {
	return analysis.Source(src, name, opts)
}

// HasErrors reports whether any diagnostic has error severity.
func HasErrors(ds []Diagnostic) bool { return analysis.HasErrors(ds) }

// AnalysisFacts is the machine-readable result of deep analysis: inferred
// class/sort sets per variable, the planner's join order with cardinality
// estimates, and per-rule/per-stratum cost rollups. It round-trips through
// JSON and is served by POST /v1/check?deep=1.
type AnalysisFacts = analysis.Facts

// AnalyzeDeep runs the full pipeline of Analyze plus the semantic tier:
// class/sort inference, the cost model and the boundedness analysis
// (codes V0301-V0305). The deep tier only adds warnings and infos — the
// accept/reject line of HasErrors does not move.
func AnalyzeDeep(p *Program, opts AnalysisOptions) ([]Diagnostic, *AnalysisFacts) {
	return analysis.Deep(p, opts)
}

// AnalyzeDeepSource parses and deep-analyzes program text; a syntax error
// becomes a single V0007 diagnostic with nil facts and program.
func AnalyzeDeepSource(src, name string, opts AnalysisOptions) ([]Diagnostic, *AnalysisFacts, *Program) {
	return analysis.DeepSource(src, name, opts)
}

// Query evaluates a conjunction of body literals (concrete syntax, e.g.
// "mod(E).sal -> S, S > 4500") against a base and returns the distinct
// bindings, sorted.
func Query(base *ObjectBase, query string) ([]Binding, error) { return core.Query(base, query) }

// FormatObjectBase renders a base in canonical concrete syntax, one fact
// per line, sorted, omitting derivable exists facts.
func FormatObjectBase(b *ObjectBase) string { return parser.FormatFacts(b, false) }

// FormatProgram renders a program in canonical concrete syntax.
func FormatProgram(p *Program) string { return parser.FormatProgram(p) }

// ComputeDiff returns the fact-level difference between two bases.
func ComputeDiff(from, to *ObjectBase) Diff { return objectbase.Compute(from, to) }

// DerivedProgram is a set of derived (query-only) rules — the Section 6
// future-work extension: rules whose heads are version-terms, evaluated on
// demand into a virtual extension of the base without ever updating it.
type DerivedProgram = term.DerivedProgram

// ParseDerived parses a derived-rule program, e.g.
//
//	senior: E.rank -> senior <- E.isa -> empl, E.sal -> S, S > 4000.
func ParseDerived(src string) (*DerivedProgram, error) { return parser.Derived(src, "derived") }

// Derive evaluates derived rules over a base (stratified, bottom-up) and
// returns a copy of the base extended with every derivable method
// application. The input base is not modified.
func Derive(base *ObjectBase, p *DerivedProgram) (*ObjectBase, error) {
	return derived.Run(base, p, derived.Options{})
}

// DeriveQuery derives and queries in one step.
func DeriveQuery(base *ObjectBase, p *DerivedProgram, query string) ([]Binding, error) {
	lits, err := parser.Query(query, "query")
	if err != nil {
		return nil, err
	}
	return derived.Query(base, p, lits, derived.Options{})
}

// HistoryStep is one stage of an object's update process (see History).
type HistoryStep = eval.HistoryStep

// History reconstructs the update history of object o from a fixpoint base
// (Result.Result): its versions in temporal order with per-step diffs —
// the temporal reading of VIDs from Section 2.2 of the paper.
func History(result *ObjectBase, o OID) []HistoryStep { return eval.History(result, o) }

// Schema is a set of class signatures (class.method -> type facts) for
// the optional typing layer of Section 2.4's schema-evolution connection.
type Schema = schema.Schema

// SchemaViolation is one schema check failure.
type SchemaViolation = schema.Violation

// ParseSchema parses class signatures, e.g. "empl.sal -> num." —
// result types are num, sym, str, any, or a class name.
func ParseSchema(src string) (*Schema, error) { return schema.Parse(src, "schema") }

// CheckSchema validates every classed object of the base against the
// schema (open-schema checking; use the schema package directly for the
// closed variant).
func CheckSchema(s *Schema, base *ObjectBase) []SchemaViolation {
	return s.Check(base, schema.Options{})
}

// Repository is an object base on disk under journal control: every
// applied program is logged with its diff, and any past state can be
// reconstructed (long-term evolution versioning, complementary to the
// per-update versions — see Section 1 of the paper).
type Repository = repository.Repository

// RepositoryEntry is one journal record of a Repository.
type RepositoryEntry = repository.Entry

// Constraint is an integrity constraint in denial form: a conjunction of
// literals that must have no answers in a consistent base. Install with
// Repository.SetConstraints; violating updates are rejected uncommitted.
type Constraint = term.Constraint

// ConstraintViolationError reports an update a repository refused to
// commit.
type ConstraintViolationError = repository.ConstraintViolationError

// ParseConstraints parses integrity constraints, one denial per clause:
//
//	nonneg: E.isa -> empl, E.sal -> S, S < 0.
func ParseConstraints(src string) ([]Constraint, error) {
	return parser.Constraints(src, "constraints")
}

// InitRepository creates a journaled repository at dir holding initial.
func InitRepository(dir string, initial *ObjectBase) (*Repository, error) {
	return repository.Init(dir, initial)
}

// OpenRepository opens an existing repository directory.
func OpenRepository(dir string) (*Repository, error) { return repository.Open(dir) }
