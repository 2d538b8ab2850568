package objectbase

import "verlog/internal/term"

// resultKey addresses the (path, method, result-constant) index.
type resultKey struct {
	Path   term.Path
	Method string
	Result term.OID
}

// argKey addresses the (path, method, first-arg-constant) index.
type argKey struct {
	Path   term.Path
	Method string
	Arg    term.OID
}

// LiteralIndex is the secondary hash index over a base that compiled match
// plans probe instead of scanning byPathMethod: for every
// (path, method, result constant) and (path, method, first-arg constant)
// it lists the VIDs carrying a matching application.
//
// An index is a point-in-time structure. The evaluator only probes it for
// path-0 literals: rule heads always target paths of length ≥ 1
// (Update.Target pushes an update kind onto the version path), so the
// path-0 stratum of a base never changes during a fixpoint and an index
// built from the input base stays exact for those literals for the whole
// evaluation. Frozen bases cache their index (see Base.Index) so all
// snapshot readers of one published head share a single build.
//
// The index of a delta layer over a root is itself layered: it holds the
// own layer's entries and points at the root's cached index, whose hits
// are skipped for versions the own layer shadows — the same merge
// ForEachVIDWith performs on the VID index. Successive heads over one root
// therefore share the root's index and rebuild only the delta's.
type LiteralIndex struct {
	byResult map[resultKey][]term.GVID
	byArg    map[argKey][]term.GVID
	// parent is the root's index when this one covers a delta layer only;
	// layer is that layer, whose own entries (tombstones included) shadow
	// the parent's hits.
	parent *LiteralIndex
	layer  *Base
	facts  int // base size at build time, for staleness-checking in tests
}

// Hits is the answer to an index probe: the VIDs of the own layer, and
// those inherited from the root's index that the own layer may shadow.
// Iterate with Len and At; the backing slices are shared and immutable.
type Hits struct {
	inherited, own []term.GVID
	layer          *Base
}

// Len returns the number of positions to visit (shadowed ones included).
func (h Hits) Len() int { return len(h.inherited) + len(h.own) }

// At returns the i-th VID, and false when it is a stale inherited hit.
func (h Hits) At(i int) (term.GVID, bool) {
	if i < len(h.inherited) {
		g := h.inherited[i]
		_, stale := h.layer.own(g)
		return g, !stale
	}
	return h.own[i-len(h.inherited)], true
}

func newLiteralIndex(facts int) *LiteralIndex {
	return &LiteralIndex{
		byResult: make(map[resultKey][]term.GVID),
		byArg:    make(map[argKey][]term.GVID),
		facts:    facts,
	}
}

// add indexes one version's state. Each (key, VID) pair is entered once,
// however many applications of the state produce it.
func (ix *LiteralIndex) add(v term.GVID, s *State) {
	s.ForEach(func(k term.MethodKey, r term.OID) {
		rk := resultKey{Path: v.Path, Method: k.Method, Result: r}
		if l := ix.byResult[rk]; len(l) == 0 || l[len(l)-1] != v {
			ix.byResult[rk] = append(l, v)
		}
		if a0, ok := k.Args.First(); ok {
			ak := argKey{Path: v.Path, Method: k.Method, Arg: a0}
			if l := ix.byArg[ak]; len(l) == 0 || l[len(l)-1] != v {
				ix.byArg[ak] = append(l, v)
			}
		}
	})
}

// BuildIndex constructs a flat literal index over the base's current
// contents. Prefer Base.Index, which caches on frozen bases and layers over
// the root's index on delta layers.
func BuildIndex(b *Base) *LiteralIndex {
	idx := newLiteralIndex(b.Size())
	b.forEachState(idx.add)
	return idx
}

// Index returns the literal index for the base. On frozen bases the index
// is built once, lazily, and shared by all readers; a frozen delta layer
// indexes only itself and shares its root's index. On mutable bases a fresh
// flat index is built per call and reflects the contents at call time.
func (b *Base) Index() *LiteralIndex {
	if !b.frozen {
		return BuildIndex(b)
	}
	if idx := b.idx.Load(); idx != nil {
		return idx
	}
	b.idxMu.Lock()
	defer b.idxMu.Unlock()
	if idx := b.idx.Load(); idx != nil {
		return idx
	}
	var idx *LiteralIndex
	if b.parent != nil && b.parent.parent == nil {
		idx = newLiteralIndex(b.Size())
		idx.parent, idx.layer = b.parent.Index(), b
		b.eachOwn(idx.add)
	} else {
		idx = BuildIndex(b)
	}
	b.idx.Store(idx)
	return idx
}

// VIDsWithResult returns the VIDs on the given path carrying
// method@... -> result, for any argument tuple.
func (ix *LiteralIndex) VIDsWithResult(path term.Path, method string, result term.OID) Hits {
	k := resultKey{Path: path, Method: method, Result: result}
	h := Hits{own: ix.byResult[k]}
	if ix.parent != nil {
		h.inherited, h.layer = ix.parent.byResult[k], ix.layer
	}
	return h
}

// VIDsWithArg returns the VIDs on the given path carrying an application of
// method whose first argument is the given constant.
func (ix *LiteralIndex) VIDsWithArg(path term.Path, method string, arg term.OID) Hits {
	k := argKey{Path: path, Method: method, Arg: arg}
	h := Hits{own: ix.byArg[k]}
	if ix.parent != nil {
		h.inherited, h.layer = ix.parent.byArg[k], ix.layer
	}
	return h
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

// Facts returns the base size captured at build time.
func (ix *LiteralIndex) Facts() int { return ix.facts }
