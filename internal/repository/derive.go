package repository

import (
	"fmt"
	"slices"
	"time"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

// Getting a state from a journal record. A record holds a program, not its
// effect: the state it leads to is the program evaluated on the state before
// it (§3–§5), and the record carries that state's digest to check the
// evaluation against. derive is the one way a head's state is got from a
// program — an apply's commit, recovery, a follower's batch and Verify all
// call it — and advance checks the states of journaled records with it. An
// entry keeps no diff: a state the head has passed is got again the same
// way, by evaluating the entries from the checkpoint (at), each evaluation
// checked against what its entry holds (record, reproducedBy).

// derivation is what derive hands its caller: the evaluation and the no-op
// proof's bookkeeping (noop.go).
type derivation struct {
	res     *eval.Result
	span    *obs.Span
	changed bool // the evaluation changed some version's state
	// pe holds the plans the evaluation ran on and params the program's
	// shape parameters (in Repository.shapeParams); proved says a no-op
	// record answered it, provable that one could have.
	pe               *planEntry
	params           []term.OID
	proved, provable bool
}

// derive evaluates p on head. p runs on the plans cached for its shape,
// planned now on a miss, or not at all when a no-op record proves that it
// changes nothing (noop.go); plan-cache outcomes count in m. fresh evaluates
// with neither cache nor proof, as Verify does, so that the evaluation is
// independent of every earlier one. The caller reads the evaluation's
// changes into its entry (Entry.record), which gives them back. applyMu
// must be held.
func (r *Repository) derive(head *headState, p *term.Program, opts []core.Option, fresh bool, m *Metrics) (d derivation, err error) {
	// Plans of p's shape, planned against the current seq class, serve it.
	// On a miss p is planned by shape here; a program that cannot be planned
	// runs without plans, and the run refuses it, after the safety check, as
	// it would any apply. Nothing reads result(P): the fixpoint is built in
	// working memory the next evaluation reuses. Eval runs from the lookup
	// to the end of the run.
	start := time.Now()
	opts = append(opts[:len(opts):len(opts)], core.WithDropResult())
	var shape uint64
	seqClass := head.seq >> planSeqClassBits
	if !fresh {
		shape, d.params = eval.ProgramShape(p, r.shapeParams[:0])
		if d.pe = r.programPlans(p, shape, d.params, seqClass); d.pe != nil {
			opts = append(opts, core.WithPlans(d.pe.prog))
		}
	}
	eng := core.New(opts...)
	d.span = eng.Span()
	d.provable = !fresh && eng.Provable()
	if d.proved = d.provable && d.pe != nil && d.pe.noop.proves(r.baseGen, d.params); d.proved {
		// An apply of a program seen to change nothing, on a head no commit
		// since changed: not evaluated. The plan-cache entry served it, so it
		// counts as a hit: the end-to-end benchmark reads the hit ratio of
		// every round, and a round of proved applies alone plans nothing.
		m.PlanCacheHits.Inc()
		m.ProvedNoops.Inc()
		d.res = d.pe.noop.result(head.base)
		return d, nil
	}
	planned := !fresh && d.pe == nil
	var stratify time.Duration
	switch {
	case planned:
		m.PlanCacheMisses.Inc()
		var cp *eval.CompiledProgram
		cp, stratify, _ = eval.PlanProgram(head.base, p, d.span)
		if cp != nil {
			d.pe = r.storeProgramPlans(shape, d.params, seqClass, cp)
			eng = core.New(append(opts, core.WithPlans(cp))...)
		}
	case !fresh:
		m.PlanCacheHits.Inc()
	}
	if d.res, err = eng.Apply(head.base, p); err != nil {
		return d, err
	}
	if planned {
		// The plans were made for this apply: it stratified and compiled.
		d.res.Plan = "compiled"
		d.res.Stats.Stratify = stratify
	}
	d.res.Stats.Eval = time.Since(start) - d.res.Stats.Safety
	d.changed = len(d.res.Changes) > 0
	return d, nil
}

// record sets what e holds of res, the evaluation of its program on a state
// of digest before: the fired count, the strata, the counts of the facts it
// adds and removes and the digest of the state it leads to, which it
// returns. The digest is summed straight from the states the evaluation
// changed: no comparison of the two bases, no diff rendered. res.Changes is
// the evaluation's working memory and goes back once it is read.
func (e *Entry) record(res *eval.Result, before storage.Digest) storage.Digest {
	delta, added, removed := storage.ChangesDigest(res.Changes)
	res.Release()
	e.Fired, e.Strata, e.NumAdded, e.NumRemoved, e.Digest = res.Fired, res.Assignment.NumStrata(), int32(added), int32(removed), nil
	after := before.Add(delta)
	if after != before {
		digest := after // allocated only when the state changed
		e.Digest = &digest
	}
	return after
}

// at returns the frozen base after the first n entries, sharing with the
// snapshot every state they leave alone; the caller has checked 0 <= n <=
// len(entries). The head is resident, and so is the state before it until
// a recovery; any other is derived again: each entry's program evaluated on
// the state before it, from the snapshot on, and checked against what the
// entry holds — digest, fired count, strata and counts — so that an entry
// its program does not reproduce is ErrDiverged, naming its seq.
func (hs *headState) at(n int) (*objectbase.Base, error) {
	switch {
	case n == len(hs.entries):
		return hs.base, nil
	case n == len(hs.entries)-1 && hs.prev != nil:
		return hs.prev, nil
	}
	base, digest := hs.snap, hs.snapDigest
	for _, e := range hs.entries[:n] {
		if e.Constraints != nil || e.Epoch != 0 {
			continue // the state is the one before it
		}
		p, err := parser.Program(e.Program, journalFile)
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
		}
		res, err := eval.Run(base, p, eval.Options{DropResult: true})
		if err != nil {
			return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
		}
		derived := Entry{Seq: e.Seq}
		digest = derived.record(res, digest)
		if err := e.reproducedBy(derived, true); err != nil {
			return nil, err
		}
		base = res.Final
	}
	return base, nil
}

// settle puts a derivation that is on the chain into the no-op proof's
// books: it numbers the base the derivation leads to if it changed it, or
// records beside its plans that it changed nothing (noop.go). applyMu must
// be held.
func (r *Repository) settle(d derivation) {
	switch {
	case d.changed:
		r.baseGen++
	case !d.proved && d.provable && d.pe != nil:
		d.pe.noop = newNoopRecord(r.baseGen, d.params, d.res)
	}
}

// advance evaluates entries — journal records read back, or received from a
// primary — in order from hs, and returns the state they lead to: hs
// extended by the entries as derived, their counts set. A record its
// program does not reproduce — another digest, fired count or number of
// strata, or a program that no longer evaluates — stops it with ErrDiverged,
// naming the record's seq. A constraints record installs its set, an epoch
// record opens its epoch; one that carries a program, a digest or (an
// epoch record) a constraint set besides, or an epoch not past the one in
// force, is ErrDiverged too. fresh
// evaluates as Verify does (derive); otherwise each evaluation goes into the
// no-op proof's books, and the caller ends the no-op records by bumping
// baseGen whatever the outcome, since the bases they were made on may never
// be published. applyMu must be held.
func (r *Repository) advance(hs *headState, entries []Entry, fresh bool, m *Metrics) (*headState, error) {
	ns := *hs
	ns.entries = slices.Grow(ns.entries, len(entries))
	for _, e := range entries {
		ns.prev = ns.base
		switch {
		case e.Epoch != 0:
			if e.Program != "" || e.Digest != nil || e.Constraints != nil {
				return nil, fmt.Errorf("%w: entry %d opens epoch %d, and carries a program, a digest or a constraint set", ErrDiverged, e.Seq, e.Epoch)
			}
			if e.Epoch <= ns.epoch {
				return nil, fmt.Errorf("%w: entry %d opens epoch %d, which is not past epoch %d", ErrDiverged, e.Seq, e.Epoch, ns.epoch)
			}
			ns.epoch = e.Epoch
		case e.Constraints != nil:
			if e.Program != "" || e.Digest != nil {
				return nil, fmt.Errorf("%w: entry %d installs a constraint set, and carries a program or a digest", ErrDiverged, e.Seq)
			}
			cons, err := parseCons(*e.Constraints, journalFile)
			if err != nil {
				return nil, fmt.Errorf("repository: journal entry %d: %w", e.Seq, err)
			}
			ns.cons = cons
		default:
			p, err := parser.Program(e.Program, journalFile)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
			}
			d, err := r.derive(&ns, p, nil, fresh, m)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
			}
			derived := Entry{Seq: e.Seq, Program: e.Program, Key: e.Key}
			digest := derived.record(d.res, ns.digest)
			if err := e.reproducedBy(derived, false); err != nil {
				return nil, err
			}
			if !fresh {
				r.settle(d)
			}
			ns.base, ns.digest = d.res.Final, digest
			e = derived
		}
		ns.seq = e.Seq
		ns.entries = append(ns.entries, e)
	}
	return &ns, nil
}

// reproducedBy returns nil when derived, the entry as an evaluation of its
// program derived it (record), holds what e holds — the digest, the fired
// count and the strata, and the counts when counts is set, as a resident
// entry holds them and a record read back does not — and ErrDiverged naming
// e's seq otherwise.
func (e Entry) reproducedBy(derived Entry, counts bool) error {
	if derived.Fired != e.Fired || derived.Strata != e.Strata || !sameDigest(derived.Digest, e.Digest) ||
		counts && (derived.NumAdded != e.NumAdded || derived.NumRemoved != e.NumRemoved) {
		return fmt.Errorf("%w: entry %d: its program derives %s; the journal holds %s",
			ErrDiverged, e.Seq, derived.outcome(counts), e.outcome(counts))
	}
	return nil
}

// sameDigest reports whether two record digests are equal, both absent
// included.
func sameDigest(a, b *storage.Digest) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// outcome renders what an entry holds of its evaluation, for errors; counts
// adds the counts.
func (e Entry) outcome(counts bool) string {
	digest := "none (the state before it)"
	if e.Digest != nil {
		digest = e.Digest.String()
	}
	s := fmt.Sprintf("digest %s, fired %d, strata %d", digest, e.Fired, e.Strata)
	if counts {
		s += fmt.Sprintf(", +%d -%d facts", e.NumAdded, e.NumRemoved)
	}
	return s
}
