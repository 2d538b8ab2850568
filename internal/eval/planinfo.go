package eval

import (
	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// Literal-plan kinds.
const (
	KindGenerator = "generator" // positive version-/update-term enumerating candidates
	KindFilter    = "filter"    // built-in comparison or binding equality
	KindNegation  = "negation"  // negated literal, checked once variables are bound
)

// Literal access paths: how a compiled generator step enumerates its
// candidates (see compile.go).
const (
	AccessLookup      = "lookup"       // version base bound: single-VID lookup
	AccessProbeResult = "probe-result" // literal-index probe on (path, method, result)
	AccessProbeArg    = "probe-arg"    // literal-index probe on (path, method, first arg)
	AccessScan        = "scan"         // (path, method) population scan
	AccessAnyScan     = "scan-any"     // any(...) wildcard: scan across all paths
	AccessDelta       = "delta"        // semi-naive join against the iteration delta
)

// LiteralPlan describes one body literal in the planner's join order: what
// it is, where it came from in the source body, how it will be accessed,
// how many candidates the planner expects it to enumerate, and whether
// semi-naive iteration seeds joins from it.
type LiteralPlan struct {
	Literal string `json:"literal"`
	Source  int    `json:"source"` // index in the source body
	Kind    string `json:"kind"`
	// Access is the compiled access path ("" for filters and negations).
	Access  string `json:"access,omitempty"`
	EstRows int    `json:"est_rows"` // 0 for filters, negations, bound-base lookups
	Delta   bool   `json:"delta"`    // semi-naive delta-seedable position
	// DeltaRows is the planner's estimate for this literal when it runs as
	// the delta seed of a semi-naive iteration (0 for non-seedable
	// literals). Iterations ≥ 2 see delta-sized inputs, not the full
	// population EstRows reports.
	DeltaRows int `json:"delta_rows,omitempty"`
}

// literalAccess reports the access path a compiled plan uses for a positive
// generator literal given the variables bound before it runs — the same
// decision compilePattern makes, made statically for plan reporting.
func literalAccess(l term.Literal, bound map[term.Var]bool) string {
	ground := func(t term.ObjTerm) bool {
		switch x := t.(type) {
		case term.OID:
			return true
		case term.Var:
			return bound[x]
		default:
			return false
		}
	}
	switch a := l.Atom.(type) {
	case term.VersionAtom:
		switch {
		case a.V.Any:
			return AccessAnyScan
		case ground(a.V.Base):
			return AccessLookup
		case a.V.Path.Len() == 0 && ground(a.App.Result):
			return AccessProbeResult
		case a.V.Path.Len() == 0 && len(a.App.Args) > 0 && ground(a.App.Args[0]):
			return AccessProbeArg
		default:
			return AccessScan
		}
	case term.UpdateAtom:
		// Update-terms address pushed paths (length ≥ 1), which the
		// literal index never covers.
		if a.V.Any {
			return AccessAnyScan
		}
		if ground(a.V.Base) {
			return AccessLookup
		}
		return AccessScan
	default:
		return ""
	}
}

// PlanLiterals reports the join order the statistics planner picks for r's
// body against base, with the same per-literal cardinality estimates the
// planner used — index selectivity included, since the compiled plans
// probe the base's literal index. A nil base selects the source-order
// static planner. This is the machine-readable form the analysis cost
// model and verlog explain-plan consume.
func PlanLiterals(base *objectbase.Base, r term.Rule) []LiteralPlan {
	est := staticCost
	if base != nil {
		est = indexedCost(base)
	}
	return planLiterals(r, est)
}

func planLiterals(r term.Rule, est costEstimator) []LiteralPlan {
	order := greedyOrder(r, est, -1)
	out := make([]LiteralPlan, 0, len(order))
	// Recompute per-literal estimates in plan order, tracking bound
	// variables exactly as the planner does.
	bound := map[term.Var]bool{}
	for _, li := range order {
		l := r.Body[li]
		lp := LiteralPlan{Literal: l.String(), Source: li, Delta: deltaSeedable(l)}
		switch {
		case l.Neg:
			lp.Kind = KindNegation
		case isBuiltin(l):
			lp.Kind = KindFilter
		default:
			lp.Kind = KindGenerator
			lp.Access = literalAccess(l, bound)
			lp.EstRows = est(l, baseBound(l, bound))
			if lp.Delta {
				// Semi-naive iterations join this literal against the
				// per-iteration delta, not the full population.
				lp.DeltaRows = deltaRowEstimate(lp.EstRows)
			}
		}
		out = append(out, lp)
		for _, v := range binds(l) {
			bound[v] = true
		}
	}
	return out
}
