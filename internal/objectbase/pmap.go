package objectbase

import (
	"hash/maphash"
	"math/bits"
	"slices"

	"verlog/internal/term"
)

// pmap is a persistent hash map from versions to states: a compressed hash
// array mapped trie (CHAMP, Steindorfer and Vinju, OOPSLA 2015) with path
// copying. with and without return a new map that shares every node off
// the path to the changed key with the receiver, and every leaf but the
// changed key's, so deriving a map from another costs O(log n) words and
// one leaf however many entries it holds, and maps derived from one
// another can be read concurrently without synchronization. Its shape
// depends only on its key set (see pnode). It stores the delta layer of
// derived bases (see Derive) — the one map on the commit path that is
// re-made on every commit; everything else uses Go maps. The zero value is
// the empty map.
type pmap struct {
	root *pnode
	n    int
}

// pnode is one trie node. Level l branches on hash bits [5l, 5l+5): a bit
// set in datamap holds an entry, in leaves, and a bit set in nodemap a
// subtree, in nodes, each slice in bit order and the two bitmaps disjoint.
// A path copy re-makes the node and the one slice it changes, a pointer a
// slot, and shares the other. A node below the last level (two keys sharing
// all 64 hash bits) is a plain bucket of leaves with unused bitmaps.
//
// The shape is canonical: a subtree exists for a hash prefix exactly when
// two or more keys share it, so no node below the root holds a lone leaf
// and nothing else. with keeps that by splitting a slot only when a second
// key meets the first; without by folding a subtree left with one leaf
// into its parent's leaves.
type pnode struct {
	datamap, nodemap uint32
	leaves           []*pleaf
	nodes            []*pnode
}

// pleaf is one entry. It is never mutated once made, so every map that
// holds the entry shares it: a rebinding makes a new leaf.
type pleaf struct {
	key term.GVID
	val *State
}

const pmapBits = 5

var pmapSeed = maphash.MakeSeed()

// hashGVID is a variable so that tests can force collisions.
var hashGVID = func(v term.GVID) uint64 {
	var h uint64
	if o := v.Object; o.IsNum() {
		r := o.Rat()
		h = uint64(r.Num())*0x9e3779b97f4a7c15 ^ uint64(r.Den())
	} else {
		h = maphash.String(pmapSeed, o.Name()) + uint64(o.Sort())
	}
	if v.Path != "" {
		h = bits.RotateLeft64(h, 29) ^ maphash.String(pmapSeed, string(v.Path))
	}
	h ^= h >> 32
	h *= 0xd6e8feb86659fd93
	return h ^ h>>32
}

// bitAt returns the bit hash h selects at the level of shift.
func bitAt(h uint64, shift uint) uint32 { return 1 << (h >> shift & (1<<pmapBits - 1)) }

// slotIndex returns the position of bit's slot among the slots of bitmap.
func slotIndex(bitmap, bit uint32) int { return bits.OnesCount32(bitmap & (bit - 1)) }

func (m pmap) len() int { return m.n }

func (m pmap) get(k term.GVID) (*State, bool) {
	h := hashGVID(k)
	n := m.root
	for shift := uint(0); n != nil && shift < 64; shift += pmapBits {
		bit := bitAt(h, shift)
		if n.datamap&bit != 0 {
			l := n.leaves[slotIndex(n.datamap, bit)]
			return l.val, l.key == k
		}
		if n.nodemap&bit == 0 {
			return nil, false
		}
		n = n.nodes[slotIndex(n.nodemap, bit)]
	}
	if n != nil { // a bucket
		for _, l := range n.leaves {
			if l.key == k {
				return l.val, true
			}
		}
	}
	return nil, false
}

// with returns the map with k bound to v.
func (m pmap) with(k term.GVID, v *State) pmap {
	root, added := m.root.with(&pleaf{key: k, val: v}, hashGVID(k), 0)
	if added {
		m.n++
	}
	m.root = root
	return m
}

// without returns the map with k unbound.
func (m pmap) without(k term.GVID) pmap {
	root, removed := m.root.without(k, hashGVID(k), 0)
	if removed {
		m.n--
		if len(root.leaves)+len(root.nodes) == 0 {
			root = nil
		}
	}
	m.root = root
	return m
}

// each calls yield for every entry, in unspecified order, until it returns
// false; it reports whether the walk ran to the end.
func (m pmap) each(yield func(k term.GVID, v *State) bool) bool { return m.root.each(yield) }

func (n *pnode) each(yield func(k term.GVID, v *State) bool) bool {
	if n == nil {
		return true
	}
	for _, l := range n.leaves {
		if !yield(l.key, l.val) {
			return false
		}
	}
	for _, c := range n.nodes {
		if !c.each(yield) {
			return false
		}
	}
	return true
}

// with returns n with l entered, the leaf of the same key replaced, and
// whether the key is new. A nil n is the empty node.
func (n *pnode) with(l *pleaf, h uint64, shift uint) (*pnode, bool) {
	c := n.clone()
	if shift >= 64 { // a bucket
		i := slices.IndexFunc(c.leaves, func(o *pleaf) bool { return o.key == l.key })
		if i < 0 {
			c.leaves = inserted(c.leaves, len(c.leaves), l)
			return c, true
		}
		c.leaves = replaced(c.leaves, i, l)
		return c, false
	}
	bit := bitAt(h, shift)
	switch {
	case c.nodemap&bit != 0:
		j := slotIndex(c.nodemap, bit)
		sub, added := c.nodes[j].with(l, h, shift+pmapBits)
		c.nodes = replaced(c.nodes, j, sub)
		return c, added
	case c.datamap&bit == 0:
		c.datamap |= bit
		c.leaves = inserted(c.leaves, slotIndex(c.datamap, bit), l)
		return c, true
	}
	i := slotIndex(c.datamap, bit)
	if old := c.leaves[i]; old.key != l.key {
		// Two keys meet in one slot: both move a level down.
		c.datamap &^= bit
		c.nodemap |= bit
		c.leaves = removed(c.leaves, i)
		c.nodes = inserted(c.nodes, slotIndex(c.nodemap, bit), pair(old, l, hashGVID(old.key), h, shift+pmapBits))
		return c, true
	}
	c.leaves = replaced(c.leaves, i, l)
	return c, false
}

// pair returns the node that holds the leaves a and b, of hashes ha and hb,
// at the level of shift: one level per hash bits the two share.
func pair(a, b *pleaf, ha, hb uint64, shift uint) *pnode {
	if shift >= 64 {
		return &pnode{leaves: []*pleaf{a, b}}
	}
	ba, bb := bitAt(ha, shift), bitAt(hb, shift)
	switch {
	case ba == bb:
		return &pnode{nodemap: ba, nodes: []*pnode{pair(a, b, ha, hb, shift+pmapBits)}}
	case ba > bb:
		a, b = b, a
	}
	return &pnode{datamap: ba | bb, leaves: []*pleaf{a, b}}
}

// without returns n with k taken out and whether it was there (n itself
// when not). The node it returns may hold a lone leaf, or nothing when it
// is the root: the parent folds the one in, pmap.without drops the other.
func (n *pnode) without(k term.GVID, h uint64, shift uint) (*pnode, bool) {
	if n == nil {
		return nil, false
	}
	if shift >= 64 { // a bucket
		i := slices.IndexFunc(n.leaves, func(o *pleaf) bool { return o.key == k })
		if i < 0 {
			return n, false
		}
		c := n.clone()
		c.leaves = removed(c.leaves, i)
		return c, true
	}
	bit := bitAt(h, shift)
	switch {
	case n.datamap&bit != 0:
		i := slotIndex(n.datamap, bit)
		if n.leaves[i].key != k {
			return n, false
		}
		c := n.clone()
		c.datamap &^= bit
		c.leaves = removed(c.leaves, i)
		return c, true
	case n.nodemap&bit == 0:
		return n, false
	}
	j := slotIndex(n.nodemap, bit)
	sub, ok := n.nodes[j].without(k, h, shift+pmapBits)
	if !ok {
		return n, false
	}
	c := n.clone()
	if len(sub.leaves) == 1 && len(sub.nodes) == 0 {
		// The subtree holds one key: its leaf takes the slot.
		c.nodemap &^= bit
		c.datamap |= bit
		c.nodes = removed(c.nodes, j)
		c.leaves = inserted(c.leaves, slotIndex(c.datamap, bit), sub.leaves[0])
		return c, true
	}
	c.nodes = replaced(c.nodes, j, sub)
	return c, true
}

// clone returns a copy of n that shares its slices; a nil n is the empty
// node.
func (n *pnode) clone() *pnode {
	if n == nil {
		return &pnode{}
	}
	c := *n
	return &c
}

// The slice edits of a path copy: each returns a new slice of exactly the
// length it needs and leaves s as it was.

func inserted[T any](s []T, i int, x T) []T {
	c := make([]T, len(s)+1)
	copy(c, s[:i])
	c[i] = x
	copy(c[i+1:], s[i:])
	return c
}

func removed[T any](s []T, i int) []T {
	if len(s) == 1 {
		return nil
	}
	c := make([]T, len(s)-1)
	copy(c, s[:i])
	copy(c[i:], s[i+1:])
	return c
}

func replaced[T any](s []T, i int, x T) []T {
	c := make([]T, len(s))
	copy(c, s)
	c[i] = x
	return c
}
