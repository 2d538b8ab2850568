package objectbase

import (
	"hash/maphash"
	"math/bits"

	"verlog/internal/term"
)

// pmap is a persistent hash map from versions to states: a hash array
// mapped trie with path copying. with and without return a new map that
// shares every node off the path to the changed key with the receiver, so
// deriving a map from another costs O(log n) however many entries it
// holds, and maps derived from one another can be read concurrently
// without synchronization. It stores the delta layer of derived bases (see
// Derive) — the one map on the commit path that is re-made on every
// commit; everything else uses Go maps. The zero value is the empty map.
type pmap struct {
	root *pnode
	n    int
}

// pnode is one trie node: a slot per set bit of bitmap, in bit order, each
// either an entry (child == nil) or a subtree. Level l branches on hash
// bits [5l, 5l+5); a node below the last level (two keys sharing all 64
// hash bits) is a plain bucket of entries with an unused bitmap.
type pnode struct {
	bitmap uint32
	slots  []pslot
}

type pslot struct {
	key   term.GVID
	val   *State
	child *pnode
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

// slot returns the position hash h selects at the node's level and whether
// a slot is there.
func (n *pnode) slot(h uint64, shift uint) (int, uint32, bool) {
	bit := uint32(1) << (h >> shift & (1<<pmapBits - 1))
	return bits.OnesCount32(n.bitmap & (bit - 1)), bit, n.bitmap&bit != 0
}

func (m pmap) len() int { return m.n }

func (m pmap) get(k term.GVID) (*State, bool) {
	h := hashGVID(k)
	n := m.root
	for shift := uint(0); n != nil && shift < 64; shift += pmapBits {
		i, _, ok := n.slot(h, shift)
		if !ok {
			return nil, false
		}
		s := &n.slots[i]
		if s.child == nil {
			return s.val, s.key == k
		}
		n = s.child
	}
	if n != nil { // a bucket
		for i := range n.slots {
			if n.slots[i].key == k {
				return n.slots[i].val, true
			}
		}
	}
	return nil, false
}

// with returns the map with k bound to v.
func (m pmap) with(k term.GVID, v *State) pmap {
	root, added := m.root.with(k, v, hashGVID(k), 0)
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
	for i := range n.slots {
		if s := &n.slots[i]; s.child != nil {
			if !s.child.each(yield) {
				return false
			}
		} else if !yield(s.key, s.val) {
			return false
		}
	}
	return true
}

// edit returns a copy of n with room for the slot at i: the existing one
// when grow is 0, a new one when grow is 1, none when grow is -1.
func (n *pnode) edit(i, grow int) *pnode {
	c := &pnode{slots: make([]pslot, len(n.slots)+grow)}
	c.bitmap = n.bitmap
	copy(c.slots, n.slots[:i])
	switch grow {
	case 0:
		copy(c.slots[i:], n.slots[i:])
	case 1:
		copy(c.slots[i+1:], n.slots[i:])
	default:
		copy(c.slots[i:], n.slots[i+1:])
	}
	return c
}

func (n *pnode) with(k term.GVID, v *State, h uint64, shift uint) (*pnode, bool) {
	if n == nil {
		n = &pnode{}
	}
	if shift >= 64 { // a bucket
		for i := range n.slots {
			if n.slots[i].key == k {
				c := n.edit(i, 0)
				c.slots[i].val = v
				return c, false
			}
		}
		c := n.edit(len(n.slots), 1)
		c.slots[len(n.slots)] = pslot{key: k, val: v}
		return c, true
	}
	i, bit, ok := n.slot(h, shift)
	if !ok {
		c := n.edit(i, 1)
		c.bitmap |= bit
		c.slots[i] = pslot{key: k, val: v}
		return c, true
	}
	c := n.edit(i, 0)
	s := &c.slots[i]
	switch {
	case s.child != nil:
		var added bool
		s.child, added = s.child.with(k, v, h, shift+pmapBits)
		return c, added
	case s.key == k:
		s.val = v
		return c, false
	default:
		// Two keys meet in one slot: both move a level down.
		sub, _ := (*pnode)(nil).with(s.key, s.val, hashGVID(s.key), shift+pmapBits)
		sub, _ = sub.with(k, v, h, shift+pmapBits)
		*s = pslot{child: sub}
		return c, true
	}
}

func (n *pnode) without(k term.GVID, h uint64, shift uint) (*pnode, bool) {
	if n == nil {
		return nil, false
	}
	i, bit, ok := 0, uint32(0), false
	if shift >= 64 { // a bucket
		for i = range n.slots {
			if ok = n.slots[i].key == k; ok {
				break
			}
		}
	} else {
		i, bit, ok = n.slot(h, shift)
	}
	if !ok {
		return n, false
	}
	if s := &n.slots[i]; s.child != nil {
		sub, removed := s.child.without(k, h, shift+pmapBits)
		if !removed {
			return n, false
		}
		if sub != nil {
			c := n.edit(i, 0)
			c.slots[i].child = sub
			return c, true
		}
	} else if s.key != k {
		return n, false
	}
	if len(n.slots) == 1 {
		return nil, true
	}
	c := n.edit(i, -1)
	c.bitmap &^= bit
	return c, true
}
