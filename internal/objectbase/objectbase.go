// Package objectbase implements the object base of the paper: a set of
// ground version-terms (facts), indexed for the access paths the bottom-up
// evaluator needs.
//
// A Base stores one State per version identity (VID). A State maps a method
// key (method name + argument tuple) to its set of results; methods are
// set-valued exactly as in Section 2.1 ("whenever an object base contains
// several method-applications ... we consider the method to be set-valued").
//
// The reserved method exists (Section 3) is stored like any other fact:
// every object o of a well-formed base carries o.exists -> o, and every
// version copied from it carries v.exists -> o. EnsureObject seeds it.
//
// A Base can be a copy-on-write overlay over a frozen parent (Overlay):
// reads merge the two layers, writes land in the overlay only. The
// evaluator runs every apply on an overlay of its input, and the updated
// base it publishes is again a layer — a frozen root plus at most one
// frozen delta layer holding the states that changed since the root was
// built (Derive). Every other state is shared by pointer between
// successive heads, so publishing an update costs what it touched. The same
// goes for what readers built on a head: when the delta layer outgrows its
// share and Derive makes a new root, the new root inherits the VID index and
// the literal-index partitions of the old one, patched for the changed
// versions, sharing every (path, method) set and partition the changes left
// alone (see Derive).
package objectbase

import (
	"iter"
	"sort"
	"sync"
	"sync/atomic"

	"verlog/internal/term"
)

type pathMethod struct {
	Path   term.Path
	Method string
}

// Base is an object base: a set of ground version-terms.
type Base struct {
	// parent is the read-only base this overlay shadows, nil for root
	// bases. A VID present in states fully shadows the parent's state for
	// that VID; an empty own state is a tombstone (version deleted).
	parent *Base
	states map[term.GVID]*State
	// delta holds the own layer in place of states (which is then nil) on
	// the delta layers Derive builds: a persistent map, so that the next
	// Derive re-makes a path of it, not the layer. Such a base is born
	// frozen, so the mutators, which work on states, never see one; readers
	// go through own, ownLen, eachOwn and eachOwnWith.
	delta pmap
	// byPathMethod indexes, for every (VID path, method) pair, the set of
	// VIDs that carry at least one application of that method. It serves
	// body literals whose version-id-term has an unbound base, e.g.
	// mod(E).sal -> S. On overlays it covers the own layer only; readers
	// merge with the parent's. A delta layer built by Derive has none: the
	// flatten rule keeps it to 1/16 of its root, so its scans walk delta and
	// test each state for the method — a sixteenth of what the same scan
	// reads of the root — and no commit leaves an index for its first
	// reader to rebuild.
	byPathMethod map[pathMethod]map[term.GVID]struct{}
	// overridesByPath counts own-layer states (including tombstones) per
	// path, so parent scans can skip the per-VID shadow check entirely for
	// paths the overlay never touched. Only allocated on overlays.
	overridesByPath map[term.Path]int
	// size is the number of facts visible through this base (parent layers
	// included).
	size  int
	depth int // overlay chain length; 0 for root bases
	// lent marks an overlay whose own-layer maps are its creator's (see
	// Layer): nothing replaces them, GrowStates included.
	lent bool
	// frozen marks a base published for concurrent readers; every mutator
	// panics on it. See Freeze.
	frozen bool
	// vidStale marks byPathMethod as deferred: mutators skip index
	// maintenance and the first reader rebuilds it in one pass over states.
	// Bulk constructions (Flatten, the engine's overlay, a new root of Derive
	// that has no built index to inherit) write thousands of states that are
	// often read back only through direct state lookups; deferring turns the
	// per-SetState index churn into at most one build. It is atomic because a
	// frozen base may still be stale: the first of its concurrent readers
	// builds under idxMu and clears the flag last, which publishes the index
	// to the others.
	vidStale atomic.Bool
	// unsettled lists, on a frozen base, the versions Section 5's final copy
	// would not leave as they are; the first caller of Unsettled collects it.
	unsettledOnce sync.Once
	unsettled     []term.GVID

	// idx caches the literal index of a frozen base so all snapshot
	// readers share its partitions. idxMu serialises its creation and the
	// deferred VID index build; idx is the lock-free fast path. Clone and
	// Overlay deliberately do not carry the cache over.
	idxMu sync.Mutex
	idx   atomic.Pointer[LiteralIndex]
}

// own returns the own-layer entry of v, which may be a tombstone.
func (b *Base) own(v term.GVID) (*State, bool) {
	if b.states == nil {
		return b.delta.get(v)
	}
	s, ok := b.states[v]
	return s, ok
}

// ownLen returns the number of own-layer entries, tombstones included.
func (b *Base) ownLen() int {
	if b.states == nil {
		return b.delta.len()
	}
	return len(b.states)
}

// eachOwn calls yield for every own-layer entry, tombstones included, until
// it returns false; it reports whether the walk ran to the end. Every walk
// of the package has this form, so a walk through several layers stops in
// whichever layer its caller does.
func (b *Base) eachOwn(yield func(v term.GVID, s *State) bool) bool {
	if b.states == nil {
		return b.delta.each(yield)
	}
	for v, s := range b.states {
		if !yield(v, s) {
			return false
		}
	}
	return true
}

// eachOwnWith calls yield for every own-layer version on the path that
// carries an application of the method: read off the VID index, or — on a
// layer Derive built, which has none — found by walking the layer.
func (b *Base) eachOwnWith(path term.Path, method string, yield func(v term.GVID) bool) bool {
	if b.states == nil {
		return b.delta.each(func(v term.GVID, s *State) bool {
			return v.Path != path || !s.HasAnyOfMethod(method) || yield(v)
		})
	}
	b.ensureVIDIndex()
	for v := range b.byPathMethod[pathMethod{Path: path, Method: method}] {
		if !yield(v) {
			return false
		}
	}
	return true
}

// Freeze marks the base immutable and returns it. A frozen base is safe to
// share across goroutines without locking: every mutating method panics,
// so a published snapshot can never be changed under a reader's feet. A
// deferred VID index stays deferred — like the literal index it is built by
// the first reader that scans, under idxMu, and shared by the rest.
// Freezing costs nothing and freezing a frozen base is a no-op.
// Clone returns an unfrozen deep copy, and Overlay a copy-on-write child;
// those are the ways to derive a mutable base from a frozen one.
func (b *Base) Freeze() *Base {
	if !b.frozen { // no write to a base other goroutines may be reading
		b.frozen = true
	}
	return b
}

// Unsettled returns the versions of the base that the final copy of
// Section 5 would not leave as they are: versions proper (path ≠ ε), and
// objects whose state is not in final form (nothing but exists, or an
// exists application other than the canonical one). The evaluator seeds its
// deepest-version bookkeeping from this list instead of scanning the base;
// a frozen base collects it once, when it is first asked for (a fixpoint
// base frozen only to protect the states it shares never is), and it is
// empty for every updated base ob'. The returned slice is shared and must
// not be mutated.
func (b *Base) Unsettled() []term.GVID {
	if !b.frozen {
		return b.collectUnsettled()
	}
	b.unsettledOnce.Do(func() { b.unsettled = b.collectUnsettled() })
	return b.unsettled
}

// collectUnsettled scans the own layer and inherits what the parent
// recorded for versions this layer does not shadow.
func (b *Base) collectUnsettled() []term.GVID {
	var out []term.GVID
	b.eachOwn(func(v term.GVID, s *State) bool {
		if !s.Empty() && !(v.IsObject() && s.settledFor(v.Object)) {
			out = append(out, v)
		}
		return true
	})
	if b.parent != nil {
		for _, v := range b.parent.Unsettled() {
			if _, shadowed := b.own(v); !shadowed {
				out = append(out, v)
			}
		}
	}
	return out
}

// Frozen reports whether the base has been frozen.
func (b *Base) Frozen() bool { return b.frozen }

// mutable panics when the base is frozen; every mutator calls it first.
func (b *Base) mutable() {
	if b.frozen {
		panic("objectbase: mutation of a frozen base (Clone it first)")
	}
}

// New returns an empty object base.
func New() *Base {
	return &Base{
		states:       make(map[term.GVID]*State),
		byPathMethod: make(map[pathMethod]map[term.GVID]struct{}),
	}
}

// Overlay returns a mutable copy-on-write view of parent: reads see the
// parent's facts, writes land only in the overlay. The parent must be
// frozen — the overlay holds a reference, and a later mutation of the
// parent would change the overlay's view under its feet. The own layer is
// kept in maps of the overlay's own, or, when lent is not nil, in lent's
// (see Layer), which must be empty.
func Overlay(parent *Base, lent *Layer) *Base {
	if !parent.Frozen() {
		panic("objectbase: Overlay of an unfrozen base")
	}
	l := lent
	if l == nil {
		l = new(Layer)
	} else if len(l.States) != 0 || len(l.Overrides) != 0 || len(l.Index) != 0 {
		panic("objectbase: Overlay on a lent layer that is not empty")
	}
	if l.States == nil {
		l.States = make(map[term.GVID]*State)
	}
	if l.Overrides == nil {
		l.Overrides = make(map[term.Path]int)
	}
	if l.Index == nil {
		l.Index = make(map[pathMethod]map[term.GVID]struct{})
	}
	b := &Base{
		parent:          parent,
		states:          l.States,
		byPathMethod:    l.Index,
		overridesByPath: l.Overrides,
		size:            parent.size,
		depth:           parent.depth + 1,
		lent:            lent != nil,
	}
	// The own-layer VID index starts deferred: fixpoints whose body
	// literals never scan derived (pushed-path) versions never build
	// it. The first scan materializes it and maintenance turns eager.
	b.vidStale.Store(true)
	return b
}

// Layer is the storage of an overlay's own layer — its states, its per-path
// override counts and its VID index — lent to Overlay by a caller that keeps
// it past the overlay: the evaluator's working memory, on a run whose
// fixpoint base nobody reads. The overlay writes into the maps it finds
// here, makes and leaves here those it does not find, and never replaces
// one. The lender empties them for the next overlay once nothing reads this
// one any more; the states the maps pointed to are not touched.
type Layer struct {
	States    map[term.GVID]*State
	Overrides map[term.Path]int
	Index     map[pathMethod]map[term.GVID]struct{}
}

// Parent returns the base this overlay shadows, or nil for root bases.
func (b *Base) Parent() *Base { return b.parent }

// Depth returns the overlay chain length (0 for root bases). Callers that
// re-publish evaluation results as new heads should Flatten once depth
// grows, to keep read amplification bounded.
func (b *Base) Depth() int { return b.depth }

// Flatten materialises the effective contents into a fresh root base,
// cutting any overlay chain. The copy's VID index is deferred: it is built
// on first use, not during the copy.
func (b *Base) Flatten() *Base {
	out := New()
	out.vidStale.Store(true)
	for v, s := range b.eachState {
		cp := s.Clone()
		out.states[v] = cp
		out.size += cp.Size()
	}
	return out
}

// Clone returns an unfrozen deep copy of the base. Overlay chains are
// flattened in the copy.
func (b *Base) Clone() *Base {
	return b.Flatten()
}

// stateOf returns the effective (merged) state of v, or nil when the
// version is absent or tombstoned.
func (b *Base) stateOf(v term.GVID) *State {
	for bb := b; bb != nil; bb = bb.parent {
		if s, ok := bb.own(v); ok {
			if s.Empty() {
				return nil
			}
			return s
		}
	}
	return nil
}

// eachState yields every effective version state, merging overlay layers
// (shadowed and tombstoned parent entries are skipped): an iter.Seq2.
func (b *Base) eachState(yield func(v term.GVID, s *State) bool) {
	live := func(v term.GVID, s *State) bool { return s.Empty() || yield(v, s) }
	if b.parent == nil {
		b.eachOwn(live)
		return
	}
	if b.parent.parent == nil {
		// Two layers — every published head — need no shadow set: the own
		// layer is the shadow.
		if b.eachOwn(live) {
			b.parent.eachOwn(func(v term.GVID, s *State) bool {
				_, hidden := b.own(v)
				return hidden || live(v, s)
			})
		}
		return
	}
	shadow := make(map[term.GVID]struct{})
	for bb := b; bb != nil; bb = bb.parent {
		if !bb.eachOwn(func(v term.GVID, s *State) bool {
			_, hidden := shadow[v]
			return hidden || live(v, s)
		}) {
			return
		}
		if bb.parent != nil {
			bb.eachOwn(func(v term.GVID, _ *State) bool { shadow[v] = struct{}{}; return true })
		}
	}
}

// DeferVIDIndex switches the base to deferred VID indexing: subsequent
// mutations skip byPathMethod maintenance, and the first scan-style reader
// (VIDsWith and friends) rebuilds the index in a single pass. Only
// root bases defer — overlays keep their per-path override bookkeeping
// live — and bases that are never scanned never pay for the index at all.
func (b *Base) DeferVIDIndex() {
	b.mutable()
	if b.parent != nil {
		panic("objectbase: DeferVIDIndex on an overlay")
	}
	b.vidStale.Store(true)
}

// ensureVIDIndex rebuilds a deferred byPathMethod index. Rebuilding once,
// with the full population known, replaces the incremental grow-and-rehash
// cost of per-mutation maintenance.
func (b *Base) ensureVIDIndex() {
	if !b.vidStale.Load() {
		return
	}
	if !b.frozen && len(b.states) == 0 {
		// Nothing to index yet. Staying deferred keeps the states that arrive
		// from maintaining an index nobody may read: an evaluation overlay
		// whose first iteration scans a derived path finds it empty, and the
		// later, delta-seeded iterations never scan.
		clear(b.byPathMethod)
		return
	}
	if b.frozen {
		b.idxMu.Lock()
		defer b.idxMu.Unlock()
		if !b.vidStale.Load() {
			return
		}
	}
	clear(b.byPathMethod)
	b.eachOwn(func(v term.GVID, s *State) bool {
		s.forEachMethod(func(m string) { b.addVID(v, m) })
		return true
	})
	b.vidStale.Store(false)
}

// VersionCount returns an upper bound on the number of versions carrying
// facts: own-layer and parent states summed without discounting shadowed
// or tombstoned entries. It is a constant-time sizing hint, not a truth
// value.
func (b *Base) VersionCount() int {
	n := 0
	for bb := b; bb != nil; bb = bb.parent {
		n += bb.ownLen()
	}
	return n
}

// indexVID registers v in byPathMethod for the given method, unless the
// index is deferred.
func (b *Base) indexVID(v term.GVID, method string) {
	if !b.vidStale.Load() {
		b.addVID(v, method)
	}
}

func (b *Base) addVID(v term.GVID, method string) {
	pm := pathMethod{Path: v.Path, Method: method}
	vs, ok := b.byPathMethod[pm]
	if !ok {
		vs = make(map[term.GVID]struct{}, 1)
		b.byPathMethod[pm] = vs
	}
	vs[v] = struct{}{}
}

// unindexVID removes v from byPathMethod for the given method.
func (b *Base) unindexVID(v term.GVID, method string) {
	if b.vidStale.Load() {
		return
	}
	pm := pathMethod{Path: v.Path, Method: method}
	if vs := b.byPathMethod[pm]; vs != nil {
		delete(vs, v)
		if len(vs) == 0 {
			delete(b.byPathMethod, pm)
		}
	}
}

// ownMutableState returns the overlay-local state for v, copying the
// parent's state up on first write. The returned state is registered in the
// own layer (shadowing the parent) but may be empty.
func (b *Base) ownMutableState(v term.GVID) *State {
	if s, ok := b.states[v]; ok {
		return s
	}
	var s *State
	if b.parent != nil {
		if ps := b.parent.stateOf(v); ps != nil {
			s = ps.Clone()
		}
	}
	if s == nil {
		s = NewState()
	}
	b.states[v] = s
	if b.parent != nil {
		b.overridesByPath[v.Path]++
		s.forEachMethod(func(m string) { b.indexVID(v, m) })
	}
	return s
}

// Size returns the number of facts in the base.
func (b *Base) Size() int { return b.size }

// Has reports whether the fact is in the base.
func (b *Base) Has(f term.Fact) bool {
	s := b.stateOf(f.V)
	return s != nil && s.Has(f.Key(), f.Result)
}

// HasVersion reports whether the base holds any fact for v.
func (b *Base) HasVersion(v term.GVID) bool {
	return b.stateOf(v) != nil
}

// Exists reports whether v.exists -> o holds for some o, i.e. whether the
// version "exists" in the sense of Section 3.
func (b *Base) Exists(v term.GVID) bool {
	s := b.stateOf(v)
	return s != nil && s.HasMethod(term.MethodKey{Method: term.ExistsMethod})
}

// VStar returns v*, the largest subterm of v whose version exists in the
// base (Section 3). ok is false when no subterm — not even the object
// itself — exists.
func (b *Base) VStar(v term.GVID) (term.GVID, bool) {
	for i := v.Path.Len(); i >= 0; i-- {
		cand := term.GVID{Object: v.Object, Path: v.Path[:i]}
		if b.Exists(cand) {
			return cand, true
		}
	}
	return term.GVID{}, false
}

// Insert adds a fact, reporting whether it was new.
func (b *Base) Insert(f term.Fact) bool {
	b.mutable()
	if b.Has(f) {
		return false
	}
	s := b.ownMutableState(f.V)
	s.Add(f.Key(), f.Result)
	b.size++
	b.indexVID(f.V, f.Method)
	return true
}

// Remove deletes a fact, reporting whether it was present.
func (b *Base) Remove(f term.Fact) bool {
	b.mutable()
	if !b.Has(f) {
		return false
	}
	s := b.ownMutableState(f.V)
	s.Remove(f.Key(), f.Result)
	b.size--
	if !s.HasAnyOfMethod(f.Method) {
		b.unindexVID(f.V, f.Method)
	}
	if s.Empty() {
		b.dropOwnIfUnneeded(f.V)
	}
	return true
}

// dropOwnIfUnneeded removes an empty own-layer state unless it must stay as
// a tombstone shadowing a parent state.
func (b *Base) dropOwnIfUnneeded(v term.GVID) {
	if b.parent != nil && b.parent.stateOf(v) != nil {
		return // keep the empty state as a tombstone
	}
	if _, ok := b.states[v]; !ok {
		return
	}
	delete(b.states, v)
	if b.parent != nil {
		if n := b.overridesByPath[v.Path] - 1; n > 0 {
			b.overridesByPath[v.Path] = n
		} else {
			delete(b.overridesByPath, v.Path)
		}
	}
}

// EnsureObject seeds o.exists -> o, making o an object of the base.
func (b *Base) EnsureObject(o term.OID) {
	b.Insert(term.NewFact(term.GVID{Object: o}, term.ExistsMethod, o))
}

// SetState replaces the entire state of v. An empty or nil state removes
// the version. It returns true when the base changed. The base takes
// ownership of st; callers must not mutate it afterwards.
func (b *Base) SetState(v term.GVID, st *State) bool {
	b.mutable()
	if st != nil && st.Empty() {
		st = nil
	}
	old := b.stateOf(v)
	if old == nil && st == nil {
		return false
	}
	if old != nil && st != nil && old.Equal(st) {
		return false
	}
	// Unregister the current own-layer entry, if any.
	if own, ok := b.states[v]; ok {
		own.forEachMethod(func(m string) { b.unindexVID(v, m) })
		delete(b.states, v)
		if b.parent != nil {
			if n := b.overridesByPath[v.Path] - 1; n > 0 {
				b.overridesByPath[v.Path] = n
			} else {
				delete(b.overridesByPath, v.Path)
			}
		}
	}
	if old != nil {
		b.size -= old.Size()
	}
	if st == nil {
		// Deletion: leave a tombstone when a parent layer still has v.
		if b.parent != nil && b.parent.stateOf(v) != nil {
			b.states[v] = NewState()
			b.overridesByPath[v.Path]++
		}
		return true
	}
	b.states[v] = st
	b.size += st.Size()
	if b.parent != nil {
		b.overridesByPath[v.Path]++
	}
	st.forEachMethod(func(m string) { b.indexVID(v, m) })
	return true
}

// SetStateFresh installs a non-empty state for a version the caller knows
// is absent from every layer of the base. It skips SetState's lookup,
// equality and unregistration work — the bulk of the map traffic on hot
// apply paths, where almost every target version is new. Calling it with a
// version that already has a state (or an empty one) corrupts the base.
func (b *Base) SetStateFresh(v term.GVID, st *State) {
	b.mutable()
	b.states[v] = st
	b.size += st.Size()
	if b.parent != nil {
		b.overridesByPath[v.Path]++
	}
	if !b.vidStale.Load() {
		st.forEachMethod(func(m string) { b.addVID(v, m) })
	}
}

// GrowStates hints that about n versions are about to receive their first
// state. When the layer's own state map is still empty it is re-made with
// that capacity, so a bulk apply pays one table allocation instead of the
// incremental grow-and-rehash ladder. A no-op once any state exists, and on
// a lent layer (see Layer), whose map has the room an earlier overlay grew.
func (b *Base) GrowStates(n int) {
	b.mutable()
	if len(b.states) == 0 && n > 0 && !b.lent {
		b.states = make(map[term.GVID]*State, n)
	}
}

// Adopt installs st, a private copy of v's current state, as v's own-layer
// entry. The contents are unchanged, so neither the fact count nor — when v
// was already in the own layer — the VID index moves. It is how a version
// that shared its state with another goes over to one it may edit in place
// (AddTo, RemoveFrom).
func (b *Base) Adopt(v term.GVID, st *State) {
	b.mutable()
	if _, own := b.states[v]; !own && b.parent != nil {
		b.overridesByPath[v.Path]++
		st.forEachMethod(func(m string) { b.indexVID(v, m) })
	}
	b.states[v] = st
}

// AddTo adds an application to st in place, reporting whether it was new.
// st must be the state the own layer holds for v and must not be shared
// with any other version or base (see Adopt).
func (b *Base) AddTo(v term.GVID, st *State, key term.MethodKey, r term.OID) bool {
	b.mutable()
	if !st.Add(key, r) {
		return false
	}
	b.size++
	b.indexVID(v, key.Method)
	return true
}

// RemoveFrom is the removing counterpart of AddTo.
func (b *Base) RemoveFrom(v term.GVID, st *State, key term.MethodKey, r term.OID) bool {
	b.mutable()
	if !st.Remove(key, r) {
		return false
	}
	b.size--
	if !b.vidStale.Load() && !st.HasAnyOfMethod(key.Method) {
		b.unindexVID(v, key.Method)
	}
	return true
}

// StateOf returns the state of v, or nil. The returned state may be shared
// with a parent layer and must not be mutated by callers; use Clone first.
func (b *Base) StateOf(v term.GVID) *State { return b.stateOf(v) }

// The iterators below stop at the first yield that returns false, in
// whichever layer of an overlay chain it comes. Each is an inlinable wrapper
// over a worker that takes yield, so that the body of a ranging loop stays
// on its caller's stack.

// FactsOf yields every fact of version v.
func (b *Base) FactsOf(v term.GVID) iter.Seq[term.Fact] {
	return func(yield func(term.Fact) bool) { b.factsOf(v, yield) }
}

func (b *Base) factsOf(v term.GVID, yield func(term.Fact) bool) {
	if s := b.stateOf(v); s != nil {
		for _, e := range s.entries {
			if !yield(term.Fact{V: v, Method: e.key.Method, Args: e.key.Args, Result: e.r}) {
				return
			}
		}
	}
}

// VIDsWith yields every VID with the given path that carries at least one
// application of the named method. It serves patterns with an unbound
// version base.
func (b *Base) VIDsWith(path term.Path, method string) iter.Seq[term.GVID] {
	return func(yield func(term.GVID) bool) { b.vidsWith(path, method, yield) }
}

func (b *Base) vidsWith(path term.Path, method string, yield func(term.GVID) bool) bool {
	switch {
	case !b.eachOwnWith(path, method, yield):
		return false
	case b.parent == nil:
		return true
	case b.overridesByPath[path] == 0:
		return b.parent.vidsWith(path, method, yield)
	}
	return b.parent.vidsWith(path, method, func(v term.GVID) bool {
		_, shadowed := b.own(v)
		return shadowed || yield(v)
	})
}

// CountVIDsWith returns how many VIDs with the given path carry at least
// one application of the named method — the cardinality estimate the
// statistics-based join planner orders generators by. On overlays the
// count may slightly overestimate (shadowed parent entries are not
// discounted); it is an estimate, not a truth value.
func (b *Base) CountVIDsWith(path term.Path, method string) int {
	n := 0
	if b.states == nil {
		b.eachOwnWith(path, method, func(term.GVID) bool { n++; return true })
	} else {
		b.ensureVIDIndex()
		n = len(b.byPathMethod[pathMethod{Path: path, Method: method}])
	}
	if b.parent != nil {
		n += b.parent.CountVIDsWith(path, method)
	}
	return n
}

// VIDsWithMethod yields every VID, on any path, that carries at least one
// application of the named method. It serves the any(...) version wildcard.
func (b *Base) VIDsWithMethod(method string) iter.Seq[term.GVID] {
	return func(yield func(term.GVID) bool) { b.vidsWithMethod(method, yield) }
}

func (b *Base) vidsWithMethod(method string, yield func(term.GVID) bool) bool {
	if b.states == nil {
		if !b.delta.each(func(v term.GVID, s *State) bool { return !s.HasAnyOfMethod(method) || yield(v) }) {
			return false
		}
	} else {
		b.ensureVIDIndex()
		for pm, vs := range b.byPathMethod {
			if pm.Method != method {
				continue
			}
			for v := range vs {
				if !yield(v) {
					return false
				}
			}
		}
	}
	switch {
	case b.parent == nil:
		return true
	case b.ownLen() == 0:
		return b.parent.vidsWithMethod(method, yield)
	}
	return b.parent.vidsWithMethod(method, func(v term.GVID) bool {
		_, shadowed := b.own(v)
		return shadowed || yield(v)
	})
}

// Results yields each result r with v.method@args -> r in the base.
func (b *Base) Results(v term.GVID, key term.MethodKey) iter.Seq[term.OID] {
	return func(yield func(term.OID) bool) {
		if s := b.stateOf(v); s != nil {
			s.results(key, yield)
		}
	}
}

// OfMethod yields every application of the named method on v, across
// argument tuples.
func (b *Base) OfMethod(v term.GVID, method string) iter.Seq2[term.MethodKey, term.OID] {
	return func(yield func(term.MethodKey, term.OID) bool) {
		if s := b.stateOf(v); s != nil {
			s.ofMethod(method, yield)
		}
	}
}

// Versions returns all VIDs carrying facts, sorted.
func (b *Base) Versions() []term.GVID {
	out := make([]term.GVID, 0, b.ownLen())
	for v := range b.eachState {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Objects returns the OIDs of all objects: VIDs with empty path, sorted.
func (b *Base) Objects() []term.OID {
	var out []term.OID
	for v := range b.eachState {
		if v.IsObject() {
			out = append(out, v.Object)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// VersionsByObject returns every VID carrying facts, grouped by object,
// each group sorted shallow to deep. It makes a single pass over the base;
// prefer it over per-object VersionsOf calls in loops.
func (b *Base) VersionsByObject() map[term.OID][]term.GVID {
	out := make(map[term.OID][]term.GVID)
	for v := range b.eachState {
		out[v.Object] = append(out[v.Object], v)
	}
	for _, vs := range out {
		sort.Slice(vs, func(i, j int) bool { return vs[i].Compare(vs[j]) < 0 })
	}
	return out
}

// VersionsOf returns all VIDs of object o carrying facts, sorted shallow to
// deep.
func (b *Base) VersionsOf(o term.OID) []term.GVID {
	var out []term.GVID
	for v := range b.eachState {
		if v.Object == o {
			out = append(out, v)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// AllFacts yields every fact in the base, in no particular order: Facts
// without the slice and the sort, for a reader whose result does not
// depend on the order.
func (b *Base) AllFacts() iter.Seq[term.Fact] {
	return func(yield func(term.Fact) bool) {
		for v, s := range b.eachState {
			for _, e := range s.entries {
				if !yield(term.Fact{V: v, Method: e.key.Method, Args: e.key.Args, Result: e.r}) {
					return
				}
			}
		}
	}
}

// Facts returns every fact in the base, sorted for deterministic output.
func (b *Base) Facts() []term.Fact {
	out := make([]term.Fact, 0, b.size)
	for v, s := range b.eachState {
		for _, e := range s.entries {
			out = append(out, term.Fact{V: v, Method: e.key.Method, Args: e.key.Args, Result: e.r})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// Equal reports whether two bases hold the same facts.
func (b *Base) Equal(c *Base) bool {
	if b.size != c.size {
		return false
	}
	for v, s := range b.eachState {
		if t := c.stateOf(v); t == nil || !s.Equal(t) {
			return false
		}
	}
	return true
}

// FromFacts builds a base from facts and seeds exists for every object that
// appears as the (path-less) subject of a fact, per Section 3.
func FromFacts(facts []term.Fact) *Base {
	b := New()
	for _, f := range facts {
		b.Insert(f)
	}
	for v := range b.states {
		if v.IsObject() {
			b.EnsureObject(v.Object)
		}
	}
	return b
}
