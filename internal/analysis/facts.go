package analysis

// Facts is the machine-readable result of the deep (semantic) tier: the
// class/sort sets inferred for every rule variable, the planner's join
// order with per-literal cardinality estimates, and per-rule/per-stratum
// cost rollups. It is the input contract for compiled-match-plan join
// ordering (see ROADMAP) and is served by POST /v1/t/{tenant}/check?deep=1.
//
// The structure round-trips through JSON: every field is a plain value and
// all slices are emitted in deterministic order (rules in program order,
// variables sorted by name, strata ascending).
type Facts struct {
	Rules  []RuleFacts    `json:"rules"`
	Strata []StratumFacts `json:"strata,omitempty"`
	Base   BaseFacts      `json:"base"`
}

// RuleFacts is the deep tier's view of one rule.
type RuleFacts struct {
	// Rule is the rule's label (name or "rule N").
	Rule string `json:"rule"`
	// Stratum is the rule's 0-based stratum, or -1 when the program is not
	// stratifiable (or contains wildcards).
	Stratum int `json:"stratum"`
	// Recursive marks rules inside a strongly connected dependency
	// component (including self-loops).
	Recursive bool `json:"recursive,omitempty"`
	// Cost is the cost-model estimate of evaluating the rule once: the sum
	// of intermediate binding-set sizes over the planner's join order.
	Cost float64 `json:"cost"`
	// Fanout is the estimated number of bindings the full body join
	// produces per evaluation (the product of generator cardinalities).
	Fanout float64 `json:"fanout"`
	// Literals holds the body literals in the planner's join order.
	Literals []LiteralFacts `json:"literals,omitempty"`
	// Vars holds the inferred class/sort sets per variable, sorted by name.
	Vars []VarFacts `json:"vars,omitempty"`
}

// LiteralFacts describes one body literal in the planner's join order.
type LiteralFacts struct {
	// Literal is the rendered literal.
	Literal string `json:"literal"`
	// Source is the literal's index in the source body.
	Source int `json:"source"`
	// Kind is "generator", "filter", or "negation".
	Kind string `json:"kind"`
	// Access is the compiled access path a generator executes as —
	// "lookup", "probe-result", "probe-arg", "scan", "scan-any" or
	// "delta" (empty for filters and negations).
	Access string `json:"access,omitempty"`
	// EstRows is the planner's cardinality estimate (0 for filters,
	// negations, and bound-base lookups).
	EstRows int `json:"est_rows"`
	// Delta marks positions semi-naive iteration seeds joins from.
	Delta bool `json:"delta,omitempty"`
	// DeltaRows is the planner's delta-seeded estimate for seedable
	// positions: the input size iterations ≥ 2 actually see.
	DeltaRows int `json:"delta_rows,omitempty"`
}

// VarFacts is the inferred abstract value of one rule variable.
type VarFacts struct {
	// Var is the variable name.
	Var string `json:"var"`
	// Sorts lists the OID sorts the variable can take ("num", "sym",
	// "str"), sorted; all three means unconstrained.
	Sorts []string `json:"sorts"`
	// Classes lists the classes the variable's receiver occurrences can
	// match, sorted; nil when the variable is never a base-state receiver
	// or no base was supplied. "(unclassed)" stands for objects without an
	// isa fact.
	Classes []string `json:"classes,omitempty"`
	// Empty marks a variable whose sort or class set came out empty — the
	// anchor of a V0301/V0302 diagnostic.
	Empty bool `json:"empty,omitempty"`
}

// StratumFacts is the cost rollup of one stratum.
type StratumFacts struct {
	// Stratum is the 0-based stratum number.
	Stratum int `json:"stratum"`
	// Rules lists the labels of the member rules, in program order.
	Rules []string `json:"rules"`
	// Cost is the summed member-rule cost.
	Cost float64 `json:"cost"`
	// Recursive marks strata containing a recursive component, whose
	// fixpoint iterates until quiescence rather than evaluating once.
	Recursive bool `json:"recursive,omitempty"`
}

// BaseFacts summarizes the object base the estimates were drawn from.
type BaseFacts struct {
	// Supplied reports whether a base was given; without one the cost
	// model falls back to the static planner and class inference is off.
	Supplied bool `json:"supplied"`
	// Objects, Versions and Facts are the base's sizes.
	Objects  int `json:"objects,omitempty"`
	Versions int `json:"versions,omitempty"`
	Facts    int `json:"facts,omitempty"`
	// Classes lists the classes (isa targets) of the base, sorted.
	Classes []string `json:"classes,omitempty"`
}
