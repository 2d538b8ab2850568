// Package core wires the verlog pipeline together: parsing, safety
// checking, stratification, bottom-up evaluation and construction of the
// updated object base. It is the engine behind the public verlog package.
package core

import (
	"fmt"
	"time"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/safety"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Engine applies update-programs to object bases under fixed options.
// The zero value is ready to use with defaults (new-object creation
// allowed).
type Engine struct {
	opts eval.Options
}

// Option configures an Engine.
type Option func(*Engine)

// WithTrace records every fired update in Result.Trace.
func WithTrace() Option { return func(e *Engine) { e.opts.Trace = true } }

// WithMaxIterations bounds T_P applications per stratum.
func WithMaxIterations(n int) Option { return func(e *Engine) { e.opts.MaxIterations = n } }

// WithForbidNewObjects rejects inserts addressing objects unknown to the
// base, restricting the language to exactly the paper's setting.
func WithForbidNewObjects() Option { return func(e *Engine) { e.opts.ForbidNewObjects = true } }

// WithPlans supplies pre-compiled match plans (eval.Compile, or the Plans
// of a previous Result). Plans compiled for another program are ignored
// and the program is compiled afresh, so stale plans are a cache miss,
// never an error. The planner ablation passes plans compiled with the
// source-order planner (eval.Compile's static argument) this way.
func WithPlans(cp *eval.CompiledProgram) Option { return func(e *Engine) { e.opts.Plans = cp } }

// WithSpan collects the evaluation as a span tree under sp (see
// internal/obs): safety and stratification checks, each stratum's
// iterations down to per-rule matching, and the copy phase. A nil sp
// disables tracing (the default).
func WithSpan(sp *obs.Span) Option { return func(e *Engine) { e.opts.Span = sp } }

// New returns an Engine with the given options.
func New(opts ...Option) *Engine {
	e := &Engine{}
	for _, o := range opts {
		o(e)
	}
	return e
}

// Span returns the span configured with WithSpan (nil when tracing is
// off), letting callers above core — the repository's constraint check and
// commit — hang their own children off the same tree.
func (e *Engine) Span() *obs.Span { return e.opts.Span }

// Check validates a program without running it: safety of every rule and
// existence of a stratification fulfilling conditions (a)-(d).
func (e *Engine) Check(p *term.Program) (*strata.Assignment, error) {
	if err := safety.Program(p); err != nil {
		return nil, err
	}
	return strata.Stratify(p)
}

// Apply checks p and evaluates it on ob, returning the full result
// (fixpoint base, updated object base, stratification, statistics).
// ob is not modified.
func (e *Engine) Apply(ob *objectbase.Base, p *term.Program) (*eval.Result, error) {
	safetyStart := time.Now()
	safetySpan := e.opts.Span.StartChild("safety")
	err := safety.Program(p)
	safetySpan.End()
	if err != nil {
		return nil, err
	}
	safetyDur := time.Since(safetyStart)
	res, err := eval.Run(ob, p, e.opts)
	if err != nil {
		return nil, err
	}
	res.Stats.Safety = safetyDur
	return res, nil
}

// ApplySource parses, checks and evaluates program text against object-base
// text. The names are used in error messages.
func (e *Engine) ApplySource(obSrc, obName, progSrc, progName string) (*eval.Result, error) {
	ob, err := parser.ObjectBase(obSrc, obName)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	p, err := parser.Program(progSrc, progName)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return e.Apply(ob, p)
}

// Query evaluates a query (a conjunction of body literals in concrete
// syntax) against a base — typically a Result.Result fixpoint, where all
// versions are visible, or a Result.Final updated base.
func Query(base *objectbase.Base, querySrc string) ([]eval.Binding, error) {
	lits, err := parser.Query(querySrc, "query")
	if err != nil {
		return nil, err
	}
	return eval.Query(base, lits)
}
