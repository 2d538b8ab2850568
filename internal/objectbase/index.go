package objectbase

import (
	"iter"
	"maps"
	"sync"
	"sync/atomic"

	"verlog/internal/term"
)

// partition is the literal index of one (path, method) pair: for every
// result constant, and for every first-argument constant, the VIDs on the
// path that carry a matching application of the method. The lists are spans
// of one array, sized by a counting pass (count, alloc, fill): a partition
// costs one map entry per distinct constant and one array slot per listed
// VID, with no growth garbage. Immutable once published.
type partition struct {
	byResult, byArg map[term.OID]span
	vids            []term.GVID
}

// span is vids[off : off+n].
type span struct{ off, n int32 }

func newPartition() *partition {
	return &partition{byResult: map[term.OID]span{}, byArg: map[term.OID]span{}}
}

func (p *partition) list(s span) []term.GVID { return p.vids[s.off : s.off+s.n] }

// each calls fn with the list — its map and its constant — every application
// of the method in the state belongs to.
func (p *partition) each(s *State, method string, fn func(m map[term.OID]span, k term.OID)) {
	for k, r := range s.OfMethod(method) {
		fn(p.byResult, r)
		if a0, ok := k.Args.First(); ok {
			fn(p.byArg, a0)
		}
	}
}

// count makes room for one version's applications of the method.
func (p *partition) count(s *State, method string) {
	p.each(s, method, func(m map[term.OID]span, k term.OID) { m[k] = span{n: m[k].n + 1} })
}

// alloc lays the counted spans out over one array, emptied for fill.
func (p *partition) alloc() {
	total := int32(0)
	for _, m := range []map[term.OID]span{p.byResult, p.byArg} {
		for k, sp := range m {
			m[k] = span{off: total}
			total += sp.n
		}
	}
	p.vids = make([]term.GVID, total)
}

// fill lists one version under the constants of its applications. Each
// (constant, VID) pair is entered once, however many applications of the
// state produce it (count reserved a slot for each, so some stay unused).
func (p *partition) fill(v term.GVID, s *State, method string) {
	p.each(s, method, func(m map[term.OID]span, k term.OID) {
		if sp := m[k]; sp.n == 0 || p.vids[sp.off+sp.n-1] != v {
			p.vids[sp.off+sp.n] = v
			m[k] = span{sp.off, sp.n + 1}
		}
	})
}

// LiteralIndex is the secondary hash index over a base that compiled match
// plans — of rules and of queries alike — probe instead of scanning the
// (path, method) population: for a result constant, or a first-argument
// constant, it lists the VIDs carrying a matching application.
//
// The index is cut into one partition per (path, method), and a partition
// is built by the first probe or cost estimate that names it, in a walk over
// the states of the base; a method nobody probes — however many distinct
// results it has — is never indexed. A reader therefore pays for
// the partitions it reads, once per base, and nothing for the rest.
//
// An index is a point-in-time structure. The evaluator only probes it for
// path-0 literals: rule heads always target paths of length ≥ 1
// (Update.Target pushes an update kind onto the version path), so the
// path-0 stratum of a base never changes during a fixpoint and a partition
// built from the input base stays exact for those literals for the whole
// evaluation. Frozen bases cache their index (see Base.Index) so all
// snapshot readers of one published head share every partition build.
//
// The index of a delta layer over a root is itself layered, by the rule
// inheritIndexes applies between roots: a layer entry shadows the root only
// for the methods it changed. The layer's partition of (path, m) lists the
// own versions on the path whose applications of m differ from the root's,
// and a probe adds the hits of the same partition of the root's cached
// index, skipping those whose layer entry (a tombstone included) changed m.
// Every live hit is listed once: a version either keeps the root's
// applications of m, and the root lists it, or has new ones, and the layer
// lists it. Successive heads over one root therefore share the root's
// partitions, and a head's own partition of a method its layer never
// changed is empty, however many versions the layer holds.
//
// Locking: mu serialises partition builds and is a leaf — a build reads
// states only and acquires nothing. The only order mu takes part in is
// Base.idxMu → mu (a caller may hold idxMu), never the reverse. Probes of a
// built partition take no lock.
type LiteralIndex struct {
	// base is the base the partitions are cut from: its own layer only when
	// parent is set, its merged contents otherwise. It is nil once every
	// partition has been built (BuildIndex); a miss is then empty.
	base *Base
	// parent is the root's index when this one covers a delta layer only,
	// whose own entries (tombstones included) shadow the parent's hits of
	// the methods they changed.
	parent *LiteralIndex
	mu     sync.Mutex
	// parts is replaced, never edited: a build publishes a copy with the new
	// partition added. There are as many entries as distinct (path, method)
	// pairs probed — a handful.
	parts atomic.Pointer[map[pathMethod]*partition]
}

// Hits is the answer to an index probe of a method: the VIDs of the own
// layer, and those inherited from the root's index that the own layer may
// shadow. Iterate with Len and At; the backing slices are shared and
// immutable.
type Hits struct {
	inherited, own []term.GVID
	layer          *Base
	method         string
}

// Len returns the number of positions to visit (shadowed ones included).
func (h Hits) Len() int { return len(h.inherited) + len(h.own) }

// At returns the i-th VID, and false when it is a stale inherited hit: one
// whose layer entry changed the method.
func (h Hits) At(i int) (term.GVID, bool) {
	if i < len(h.inherited) {
		g := h.inherited[i]
		return g, !h.layer.changedOfMethod(g, h.method)
	}
	return h.own[i-len(h.inherited)], true
}

// changedOfMethod reports whether the delta layer b holds an entry for v —
// a tombstone counts — whose applications of the method differ from those
// of its root.
func (b *Base) changedOfMethod(v term.GVID, method string) bool {
	s, ok := b.own(v)
	return ok && !b.parent.stateOf(v).sameOfMethod(s, method)
}

// BuildIndex constructs a flat literal index over the base's current
// contents with every partition built. Prefer Base.Index, which builds the
// partitions that are asked for, caches on frozen bases and layers over the
// root's index on delta layers.
func BuildIndex(b *Base) *LiteralIndex {
	parts := make(map[pathMethod]*partition)
	for v, s := range b.eachState {
		s.forEachMethod(func(m string) {
			pm := pathMethod{Path: v.Path, Method: m}
			if parts[pm] == nil {
				parts[pm] = newPartition()
			}
			parts[pm].count(s, m)
		})
	}
	for _, p := range parts {
		p.alloc()
	}
	for v, s := range b.eachState {
		s.forEachMethod(func(m string) { parts[pathMethod{Path: v.Path, Method: m}].fill(v, s, m) })
	}
	ix := &LiteralIndex{}
	ix.parts.Store(&parts)
	return ix
}

// Index returns the literal index for the base. On frozen bases the index
// is created once and shared by all readers, who also share each partition
// the first of them builds; a frozen delta layer indexes only itself and
// shares its root's index. On mutable bases a fresh index is returned per
// call, and its partitions reflect the contents when they are first probed.
func (b *Base) Index() *LiteralIndex {
	if !b.frozen {
		return &LiteralIndex{base: b}
	}
	if idx := b.idx.Load(); idx != nil {
		return idx
	}
	b.idxMu.Lock()
	defer b.idxMu.Unlock()
	if idx := b.idx.Load(); idx != nil {
		return idx
	}
	idx := &LiteralIndex{base: b}
	if b.parent != nil && b.parent.parent == nil {
		idx.parent = b.parent.Index()
	}
	b.idx.Store(idx)
	return idx
}

// built returns the partition of pm if some reader has built it.
func (ix *LiteralIndex) built(pm pathMethod) *partition {
	if parts := ix.parts.Load(); parts != nil {
		return (*parts)[pm]
	}
	return nil
}

var noPartition = newPartition()

// part returns the partition of pm, building it on first use.
func (ix *LiteralIndex) part(pm pathMethod) *partition {
	if p := ix.built(pm); p != nil {
		return p
	}
	b := ix.base
	if b == nil {
		return noPartition
	}
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if p := ix.built(pm); p != nil {
		return p
	}
	// The carriers are found by walking the states — of the own layer under
	// a layered index, keeping the versions that changed the method, of the
	// merged layers otherwise — not read off the VID index: every carrier's
	// state is read anyway, and a base nobody has scanned yet is not made to
	// build one.
	var walk iter.Seq2[term.GVID, *State] = b.eachState
	if ix.parent != nil {
		walk = func(yield func(term.GVID, *State) bool) { b.eachOwn(yield) }
	}
	carriers := func(yield func(v term.GVID, s *State) bool) {
		for v, s := range walk {
			if v.Path == pm.Path && s.HasAnyOfMethod(pm.Method) && (ix.parent == nil || b.changedOfMethod(v, pm.Method)) && !yield(v, s) {
				return
			}
		}
	}
	p := newPartition()
	for _, s := range carriers {
		p.count(s, pm.Method)
	}
	p.alloc()
	for v, s := range carriers {
		p.fill(v, s, pm.Method)
	}
	parts := map[pathMethod]*partition{pm: p}
	if old := ix.parts.Load(); old != nil {
		maps.Copy(parts, *old)
	}
	ix.parts.Store(&parts)
	return p
}

// both returns the partitions a probe reads: the index's own and, on a
// layered index, the root's.
func (ix *LiteralIndex) both(pm pathMethod) (own, root *partition) {
	own, root = ix.part(pm), noPartition
	if ix.parent != nil {
		root = ix.parent.part(pm)
	}
	return own, root
}

// VIDsWithResult returns the VIDs on the given path carrying
// method@... -> result, for any argument tuple.
func (ix *LiteralIndex) VIDsWithResult(path term.Path, method string, result term.OID) Hits {
	own, root := ix.both(pathMethod{Path: path, Method: method})
	return Hits{own: own.list(own.byResult[result]), inherited: root.list(root.byResult[result]), layer: ix.base, method: method}
}

// VIDsWithArg returns the VIDs on the given path carrying an application of
// method whose first argument is the given constant.
func (ix *LiteralIndex) VIDsWithArg(path term.Path, method string, arg term.OID) Hits {
	own, root := ix.both(pathMethod{Path: path, Method: method})
	return Hits{own: own.list(own.byArg[arg]), inherited: root.list(root.byArg[arg]), layer: ix.base, method: method}
}

// CountVIDsWithResult returns the selectivity estimate for a
// result-constant probe — the planner's refinement over
// Base.CountVIDsWith when the literal fixes its result.
func (ix *LiteralIndex) CountVIDsWithResult(path term.Path, method string, result term.OID) int {
	return ix.VIDsWithResult(path, method, result).Len()
}

// CountVIDsWithArg is the selectivity estimate for a first-arg probe.
func (ix *LiteralIndex) CountVIDsWithArg(path term.Path, method string, arg term.OID) int {
	return ix.VIDsWithArg(path, method, arg).Len()
}
