package repository

import (
	"fmt"
	"time"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/storage"
	"verlog/internal/term"
)

// Getting a state from a journal record. A record holds a program, not its
// effect: the state it leads to is the program evaluated on the state before
// it (§3–§5), and the record carries that state's digest to check the
// evaluation against. derive is the one way a state is got from a program —
// an apply's commit, recovery, a follower's batch and Verify all call it —
// and advance checks the states of journaled records with it.

// derivation is what derive hands its caller: the evaluation, the digest of
// the state it leads to, and the no-op proof's bookkeeping (noop.go).
type derivation struct {
	res     *eval.Result
	span    *obs.Span
	digest  storage.Digest // of res.Final
	changed bool           // the evaluation changed some version's state
	// pe holds the plans the evaluation ran on and params the program's
	// shape parameters (in Repository.shapeParams); proved says a no-op
	// record answered it, provable that one could have.
	pe               *planEntry
	params           []term.OID
	proved, provable bool
}

// derive evaluates p, the program of e, on head, and sets e's Fired,
// Strata, Added, Removed and Digest from the evaluation. p runs on the plans
// cached for its shape, planned now on a miss, or not at all when a no-op
// record proves that it changes nothing (noop.go); plan-cache outcomes count
// in m. fresh evaluates with neither cache nor proof, as Replay does, so that
// the evaluation is independent of every earlier one. The diff is rendered
// in a buffer the repository owns and the digest follows it: the facts it
// adds are hashed in, the facts it removes out. applyMu must be held.
func (r *Repository) derive(head *headState, e *Entry, p *term.Program, opts []core.Option, fresh bool, m *Metrics) (d derivation, err error) {
	// Plans of p's shape, planned against the current seq class, serve it.
	// On a miss p is planned by shape here; a program that cannot be planned
	// runs without plans, and the run refuses it, after the safety check, as
	// it would any apply. Nothing reads result(P): the fixpoint is built in
	// working memory the next evaluation reuses.
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
	} else {
		planned := !fresh && d.pe == nil
		var plan, stratify time.Duration
		switch {
		case planned:
			m.PlanCacheMisses.Inc()
			planStart := time.Now()
			var cp *eval.CompiledProgram
			cp, stratify, _ = eval.PlanProgram(head.base, p, d.span)
			if cp != nil {
				d.pe = r.storeProgramPlans(shape, d.params, seqClass, cp)
				eng = core.New(append(opts, core.WithPlans(cp))...)
			}
			plan = time.Since(planStart)
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
			d.res.Stats.Eval += plan
		}
	}

	// The diff is written straight from the states the evaluation changed:
	// no comparison of the two bases, no fact lists in between. Changes is
	// the evaluation's working memory and goes back once it is written.
	renderStart := time.Now()
	res := d.res
	d.changed = len(res.Changes) > 0
	buf := storage.AppendAdded(r.diffBuf[:0], res.Changes)
	split := len(buf)
	buf = storage.AppendRemoved(buf, res.Changes)
	r.diffBuf = buf
	res.Release()
	e.Fired, e.Strata = res.Fired, res.Assignment.NumStrata()
	e.Added, e.Removed, e.Digest = "", "", nil
	d.digest = head.digest
	if len(buf) > 0 {
		e.Added, e.Removed = storage.Facts(buf[:split]), storage.Facts(buf[split:])
		d.digest = head.digest.Add(storage.FactsDigest(buf[:split])).Sub(storage.FactsDigest(buf[split:]))
		if d.digest != head.digest {
			digest := d.digest
			e.Digest = &digest
		}
	}
	res.Stats.Encode = time.Since(renderStart)
	return d, nil
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
// extended by the entries as derived, their diffs resident. A record its
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
			e.Added, e.Removed = "", ""
		case e.Constraints != nil:
			if e.Program != "" || e.Digest != nil {
				return nil, fmt.Errorf("%w: entry %d installs a constraint set, and carries a program or a digest", ErrDiverged, e.Seq)
			}
			cons, err := parseCons(*e.Constraints, journalFile)
			if err != nil {
				return nil, fmt.Errorf("repository: journal entry %d: %w", e.Seq, err)
			}
			ns.cons = cons
			e.Added, e.Removed = "", ""
		default:
			p, err := parser.Program(e.Program, journalFile)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
			}
			derived := Entry{Seq: e.Seq, Program: e.Program, Key: e.Key}
			d, err := r.derive(&ns, &derived, p, nil, fresh, m)
			if err != nil {
				return nil, fmt.Errorf("%w: entry %d: %w", ErrDiverged, e.Seq, err)
			}
			if derived.Fired != e.Fired || derived.Strata != e.Strata || !sameDigest(derived.Digest, e.Digest) {
				return nil, fmt.Errorf("%w: entry %d: its program derives %s; the record holds %s",
					ErrDiverged, e.Seq, derived.outcome(), e.outcome())
			}
			if !fresh {
				r.settle(d)
			}
			ns.base, ns.digest = d.res.Final, d.digest
			e = derived
		}
		ns.seq = e.Seq
		ns.entries = append(ns.entries, e)
	}
	return &ns, nil
}

// sameDigest reports whether two record digests are equal, both absent
// included.
func sameDigest(a, b *storage.Digest) bool {
	return a == b || a != nil && b != nil && *a == *b
}

// outcome renders what a record holds of its evaluation, for errors.
func (e Entry) outcome() string {
	digest := "none (the state before it)"
	if e.Digest != nil {
		digest = e.Digest.String()
	}
	return fmt.Sprintf("digest %s, fired %d, strata %d", digest, e.Fired, e.Strata)
}
