package objectbase

import (
	"maps"
	"slices"

	"verlog/internal/term"
)

// Change is one version whose state differs between a base and the base
// derived from it. Old is the state before (nil when the version is new),
// New the state after (nil when the version is gone). Both are shared with
// the bases involved and must not be mutated.
type Change struct {
	V        term.GVID
	Old, New *State
}

// flattenDivisor is the flatten rule of Derive: a delta layer may hold at
// most 1/flattenDivisor as many versions as the root under it. Past that
// the next Derive builds a fresh root — the only O(|base|) step left on the
// publish path, a copy of the slot array (8 B a version) when the versions
// stay the root's, paid once per |root|/flattenDivisor changed versions,
// i.e. flattenDivisor slots per change whatever the size of the base. What
// the bound buys is that nothing read off a delta layer (a scan, which walks
// it; the walk that builds a literal-index partition, per head when first
// probed, which allocates only for the versions that changed the probed
// method; the second lookup of every read) can take longer than that
// fraction of the same work on the root. It is a constant, not an option: both sides of the trade
// scale with the base, so no workload wants a different ratio — an update
// touching a few versions stays under it for many rounds, one touching most
// of the base is over it at once and pays exactly what building ob' from
// scratch costs.
const flattenDivisor = 16

// tombstone is the empty state a delta layer stores for a version its root
// still holds but the derived base does not. Frozen layers never mutate
// their states, so one instance serves them all.
var tombstone = &State{}

// Derive returns the frozen base that differs from the frozen base b in
// exactly the given versions: each takes its New state, or disappears when
// New is nil or empty; Old must be the state b holds for it. Every other
// state is shared with b by pointer and b's delta layer is shared node by
// node and leaf by leaf (see pmap), as is its list of paths unless a
// change adds one, so the cost is that of the changes: the result is b's
// root under one delta layer, until that layer outgrows the flatten rule
// and a new root is built. The new states become part of a frozen base: the
// caller must not mutate them afterwards. Derive with no changes returns b
// itself.
//
// A new root keeps the version index of the root it replaces when the two
// hold the same versions, and copies only the slot array (see reslot);
// otherwise it builds one of its own (reindex). It inherits, too, what
// readers built on that root (see inheritIndexes): if its VID index is
// built, the new root is born with its own — the old one, patched for the
// changed versions — and with every partition of the old literal index the
// changes did not touch. If nobody scanned the old root there is nothing to
// patch, and the new root defers its VID index to its first scanning
// reader, as a Flatten does; nor is anything inherited across a chain
// deeper than root plus one layer.
func (b *Base) Derive(changes []Change) *Base {
	if !b.frozen {
		panic("objectbase: Derive of an unfrozen base")
	}
	if len(changes) == 0 {
		return b
	}
	out := &Base{size: b.size, frozen: true}
	out.keepUnsettled(b.unsettledAfter(changes))
	for _, c := range changes {
		if c.Old != nil {
			out.size -= c.Old.Size()
		}
		if c.New != nil {
			out.size += c.New.Size()
		}
	}
	root, layer := b, len(changes)
	if b.parent != nil {
		root, layer = b.parent, b.ownLen()+len(changes)
	}
	if root.parent != nil || layer*flattenDivisor > root.ownLen() {
		if root.parent != nil || !out.reslot(root, b, changes) {
			out.reindex(b, changes)
		}
		if root.parent != nil || root.vidStale.Load() {
			// Nothing to inherit: the VID index is built by the first reader
			// that scans, the partitions by the first that probes.
			out.byPathMethod = make(map[pathMethod]map[term.GVID]struct{})
			out.vidStale.Store(true)
			return out
		}
		out.inheritIndexes(root, b, changes)
		return out
	}
	out.parent, out.depth = root, 1
	private := false // whether out.overridesByPath is out's own to write
	if b != root {
		out.delta, out.overridesByPath = b.delta, b.overridesByPath
		if b.lent != nil { // the lender empties the map once b is done with
			out.overridesByPath, private = maps.Clone(b.overridesByPath), true
		}
		for v, i := range b.at { // only a layer the mutators built has any
			out.delta = out.delta.with(v, b.slots[i])
		}
	}
	for _, c := range changes {
		switch {
		case !c.New.Empty():
			out.delta = out.delta.with(c.V, c.New)
		case root.stateOf(c.V) != nil:
			out.delta = out.delta.with(c.V, tombstone)
		default:
			out.delta = out.delta.without(c.V)
			continue
		}
		if _, listed := out.overridesByPath[c.V.Path]; !listed {
			if !private {
				paths := make(map[term.Path]int, len(out.overridesByPath)+1)
				maps.Copy(paths, out.overridesByPath)
				out.overridesByPath, private = paths, true
			}
			out.overridesByPath[c.V.Path] = 1
		}
	}
	return out
}

// reslot gives out, the new root built from b over root, root's version
// index and a copy of its slots with b's delta-layer entries, then the
// changes, written in: 8 bytes a version. It reports false, leaving out to
// reindex, when one of them adds a version to root's or empties one.
func (out *Base) reslot(root, b *Base, changes []Change) bool {
	slots := slices.Clone(root.slots)
	// put reports whether the versions stay root's: v is, and s not empty,
	// or v is not, and s is.
	put := func(v term.GVID, s *State) bool {
		i, ok := root.at[v]
		if ok && !s.Empty() {
			slots[i] = s
		}
		return ok != s.Empty()
	}
	if b != root && !b.eachOwn(put) {
		return false
	}
	for _, c := range changes {
		if !put(c.V, c.New) {
			return false
		}
	}
	out.at, out.slots = root.at, slots
	return true
}

// reindex gives out, the new root built from b, a version index of its own,
// compacted: every version of b the changes left alone, then the changed
// ones that stay.
func (out *Base) reindex(b *Base, changes []Change) {
	n := b.VersionCount()
	out.at, out.slots = make(map[term.GVID]int32, n), make([]*State, 0, n)
	for _, c := range changes {
		out.at[c.V] = -1 // not to be entered from b
	}
	for v, s := range b.eachState {
		if _, changed := out.at[v]; !changed {
			out.addOwn(v, s)
		}
	}
	for _, c := range changes {
		if delete(out.at, c.V); !c.New.Empty() {
			out.addOwn(c.V, c.New)
		}
	}
}

// inheritIndexes gives out, the new root built from b by the changes, the
// indexes of the root it replaces (b or b's parent), whose VID index is built,
// patched for every version whose state may differ between the two: the
// changes and, when b is root plus delta layer, the layer's entries, each
// compared with what the old root holds (a version in both is visited twice,
// which patches nothing the second time). The (path, method) sets no such version enters or leaves are shared with
// the old root, the others copied and then patched; and every partition of
// the old root's literal index whose method no changed version on its path
// applies differently is carried over by pointer. Sets and partitions are
// immutable once their base is frozen, so two roots may read one.
func (out *Base) inheritIndexes(root, b *Base, changes []Change) {
	out.byPathMethod = maps.Clone(root.byPathMethod)
	var parts map[pathMethod]*partition
	var carried []pathMethod // the keys of parts still in the running
	if idx := root.idx.Load(); idx != nil {
		if built := idx.parts.Load(); built != nil {
			parts = *built
			carried = slices.Collect(maps.Keys(parts))
		}
	}
	// patch enters v into the set of its path and the method or takes it out,
	// on a copy of the set the first time (private remembers which sets are
	// copies).
	var v term.GVID
	var private map[pathMethod]struct{}
	patch := func(method string, enter bool) {
		pm := pathMethod{Path: v.Path, Method: method}
		vs := out.byPathMethod[pm]
		if _, listed := vs[v]; listed == enter {
			return
		}
		if !enter && len(vs) == 1 {
			delete(out.byPathMethod, pm)
			delete(private, pm)
			return
		}
		if _, mine := private[pm]; !mine {
			if private == nil {
				private = make(map[pathMethod]struct{})
			}
			private[pm] = struct{}{}
			if vs == nil {
				vs = make(map[term.GVID]struct{}, 1)
			} else {
				vs = maps.Clone(vs)
			}
			out.byPathMethod[pm] = vs
		}
		if enter {
			vs[v] = struct{}{}
		} else {
			delete(vs, v)
		}
	}
	visit := func(changed term.GVID, _ *State) bool {
		v = changed
		before, _ := root.own(v)
		after, _ := out.own(v)
		if before == after {
			return true
		}
		methodsMoved(before, after, patch)
		carried = slices.DeleteFunc(carried, func(pm pathMethod) bool {
			return pm.Path == v.Path && !before.sameOfMethod(after, pm.Method)
		})
		return true
	}
	for _, c := range changes {
		visit(c.V, nil)
	}
	if b != root {
		b.eachOwn(visit)
	}
	idx := &LiteralIndex{base: out}
	if len(carried) > 0 {
		kept := make(map[pathMethod]*partition, len(carried))
		for _, pm := range carried {
			kept[pm] = parts[pm]
		}
		idx.parts.Store(&kept)
	}
	out.idx.Store(idx)
}

// unsettledAfter returns the Unsettled list of the base derived from b by
// the changes: what b lists minus the changed versions, plus the new states
// that are unsettled themselves.
func (b *Base) unsettledAfter(changes []Change) []term.GVID {
	var out []term.GVID
	if unsettled := b.Unsettled(); len(unsettled) > 0 {
		changed := make(map[term.GVID]struct{}, len(changes))
		for _, c := range changes {
			changed[c.V] = struct{}{}
		}
		for _, v := range unsettled {
			if _, ok := changed[v]; !ok {
				out = append(out, v)
			}
		}
	}
	for _, c := range changes {
		if !c.New.Empty() && !(c.V.IsObject() && c.New.settledFor(c.V.Object)) {
			out = append(out, c.V)
		}
	}
	return out
}
