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
	// Compile each literal in plan order as compileRule does, for the access
	// path of its step, and recompute its estimate, tracking bound variables
	// exactly as the planner does. A literal the compiler refuses reports no
	// access; the literals after it are still reported.
	rc := &ruleCompiler{slots: map[term.Var]int{}}
	slots := map[int]bool{}
	bound := map[term.Var]bool{}
	for _, li := range order {
		l := r.Body[li]
		st, err := compileStep(rc, slots, l, false)
		lp := LiteralPlan{Literal: l.String(), Source: li, Delta: deltaSeedable(l)}
		switch {
		case l.Neg:
			lp.Kind = KindNegation
		case isBuiltin(l):
			lp.Kind = KindFilter
		default:
			lp.Kind = KindGenerator
			if err == nil {
				lp.Access = st.acc.name()
			}
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
