package repository

import (
	"verlog/internal/eval"
	"verlog/internal/term"
)

// The plan cache. One cache holds the compiled plans of applies and of
// queries, keyed by program shape (eval.ProgramShape, eval.QueryShape): a
// point update or query naming a new OID runs on the plans of the first
// text of its shape. Lifted plans are keyed by the shape; plans that serve
// one text only (a program whose lift is not one stratum) by the shape
// mixed with the parameters (eval.TextKey). A key only finds a slot: an
// entry serves a program only when it is that program's shape position by
// position (Serves), so a colliding key is a miss.
//
// Entries are tagged with the seq class of the head they were planned
// against, which advances every 2^planSeqClassBits commits: that bounds how
// stale the join-order statistics behind a reused plan get. Plans stay
// correct regardless (estimates only pick the order), so the class is a
// freshness knob, not a correctness one. The cache is planSets sets of two
// ways, the older way of a set replaced on a store.
//
// Applies (under applyMu) and queries (under nothing) share it, so planMu
// guards the slots. It is a leaf lock, held for the slot reads and the
// store and never across a compile.
const (
	planSeqClassBits = 6
	planSets         = 32
)

// planEntry is one cached plan: a program's or a query's.
type planEntry struct {
	key      uint64
	seqClass int
	prog     *eval.CompiledProgram
	query    *eval.CompiledQuery
}

// planSet is one set of the cache; next is the way the next store takes.
type planSet struct {
	ways [2]*planEntry
	next int
}

// findPlans returns the entry cached under key, or nil.
func (r *Repository) findPlans(key uint64) *planEntry {
	set := &r.plans[key&(planSets-1)]
	r.planMu.Lock()
	e0, e1 := set.ways[0], set.ways[1]
	r.planMu.Unlock()
	switch {
	case e0 != nil && e0.key == key:
		return e0
	case e1 != nil && e1.key == key:
		return e1
	}
	return nil
}

// storePlans caches e under e.key: over the entry with that key, or over
// the older way of its set.
func (r *Repository) storePlans(e *planEntry) {
	set := &r.plans[e.key&(planSets-1)]
	r.planMu.Lock()
	w := set.next
	if set.ways[0] != nil && set.ways[0].key == e.key {
		w = 0
	} else if set.ways[1] != nil && set.ways[1].key == e.key {
		w = 1
	} else {
		set.next = 1 - w
	}
	set.ways[w] = e
	r.planMu.Unlock()
}

// programPlans returns cached plans that serve p for the seq class, or nil.
// The shape key is looked up first, then the text key.
func (r *Repository) programPlans(p *term.Program, seqClass int) *eval.CompiledProgram {
	var buf [eval.MaxParams]term.OID
	shape, params := eval.ProgramShape(p, buf[:0])
	if cp := r.programPlansAt(shape, p, params, seqClass); cp != nil {
		return cp
	}
	return r.programPlansAt(eval.TextKey(shape, params), p, params, seqClass)
}

// programPlansAt returns the plans cached under key if they serve p, whose
// shape parameters are params, for the seq class.
func (r *Repository) programPlansAt(key uint64, p *term.Program, params []term.OID, seqClass int) *eval.CompiledProgram {
	e := r.findPlans(key)
	if e == nil || e.seqClass != seqClass || !e.prog.Serves(p, params) {
		return nil
	}
	return e.prog
}

// storeProgramPlans caches plans PlanProgram made for p.
func (r *Repository) storeProgramPlans(p *term.Program, seqClass int, cp *eval.CompiledProgram) {
	var buf [eval.MaxParams]term.OID
	key, params := eval.ProgramShape(p, buf[:0])
	if !cp.Lifted() {
		key = eval.TextKey(key, params)
	}
	r.storePlans(&planEntry{key: key, seqClass: seqClass, prog: cp})
}

// QueryRows answers a query body against the published head, as
// eval.QueryRows does, with plans from the plan cache: a body of a shape
// already planned in this seq class is not compiled again. The variables
// returned are shared with the cache: callers must not modify them.
func (r *Repository) QueryRows(body []term.Literal) ([]term.Var, [][]term.OID, error) {
	hs := r.published.Load()
	seqClass := hs.seq >> planSeqClassBits
	var buf [eval.MaxParams]term.OID
	key, params := eval.QueryShape(body, buf[:0])
	if e := r.findPlans(key); e != nil && e.seqClass == seqClass && e.query.Serves(body, params) {
		r.met().QueryPlanCacheHits.Inc()
		return e.query.Rows(hs.base, params)
	}
	r.met().QueryPlanCacheMisses.Inc()
	q, err := eval.PlanQuery(hs.base, body)
	if err != nil {
		return nil, nil, err
	}
	r.storePlans(&planEntry{key: key, seqClass: seqClass, query: q})
	return q.Rows(hs.base, params)
}
