package repository

import (
	"slices"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// The no-op proof. A program's result is a pure function of the base and the
// program (§3–§5). So an apply of a program that was seen to change nothing
// changes nothing again on the same base: its evaluation would fire the same
// updates over the same iterations and derive ob' = the head. Such an apply
// is not evaluated. Its commit runs as any other that changed nothing: the
// same journal record is written, and no constraint is checked, since the
// head it republishes satisfies the set in force.
//
// An apply that changed nothing leaves a noopRecord beside the plans it ran
// on, naming the base it ran on by Repository.baseGen. A commit whose diff is
// empty, or a constraint install, leaves the base as it was; every other way
// of moving the head — a commit that changed something, recovery, a repair
// after a failed flush, a replica batch, a reset to a snapshot — bumps
// baseGen, which ends every record. Recovery and a replica batch evaluate
// records as commits do (derive), keeping the books the same way as they go.

// noopRecord is what an apply that changed nothing leaves in its plan-cache
// entry: the base it ran on, the program's shape parameters, and what its
// evaluation counted.
type noopRecord struct {
	base       uint64     // Repository.baseGen of the head it ran on
	params     []term.OID // its program's shape parameters
	fired      int
	assignment *strata.Assignment
	iterations []int
}

// newNoopRecord returns the record of an apply of the program of shape
// parameters params, on the base numbered base, whose evaluation res changed
// nothing.
func newNoopRecord(base uint64, params []term.OID, res *eval.Result) *noopRecord {
	return &noopRecord{base: base, params: slices.Clone(params), fired: res.Fired,
		assignment: res.Assignment, iterations: res.Iterations}
}

// proves reports whether rec proves that the program of shape parameters
// params changes nothing on the base numbered base: rec ran on that base and
// is of the same parameters.
func (rec *noopRecord) proves(base uint64, params []term.OID) bool {
	return rec != nil && rec.base == base && slices.Equal(rec.params, params)
}

// result is the outcome rec proves for an apply on head: ob' is the head,
// nothing changed, and the counts are those of the evaluation rec records.
func (rec *noopRecord) result(head *objectbase.Base) *eval.Result {
	return &eval.Result{Final: head, Assignment: rec.assignment, Iterations: rec.iterations, Fired: rec.fired, Plan: "proved"}
}
