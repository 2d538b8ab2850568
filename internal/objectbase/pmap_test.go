package objectbase

import (
	"fmt"
	"maps"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"verlog/internal/term"
)

// pmapHashes are the hash regimes the pmap tests run under: the real hash,
// and hashes degenerate enough to force deep splits and full-hash collision
// buckets.
var pmapHashes = map[string]func(term.GVID) uint64{
	"real":      hashGVID,
	"two-bit":   func(v term.GVID) uint64 { return uint64(len(v.Object.String())+len(v.Path)) % 4 },
	"high-bits": func(v term.GVID) uint64 { return uint64(len(v.Object.String())%3) << 61 },
	"constant":  func(term.GVID) uint64 { return 42 },
}

// TestPmapAgainstMap drives a persistent map and a Go map through the same
// random edits, under every hash regime, and checks after every edit that
// they agree, that the trie keeps its layout, and that no earlier version
// of the map changed. Every 50 edits it builds a second map over the same
// keys in another order, passing through keys the first never held, and
// holds the two to one shape.
func TestPmapAgainstMap(t *testing.T) {
	saved := hashGVID
	defer func() { hashGVID = saved }()
	for name, h := range pmapHashes {
		t.Run(name, func(t *testing.T) {
			hashGVID = h
			rng := rand.New(rand.NewSource(7))
			var m pmap
			ref := map[term.GVID]*State{}
			type snap struct {
				m   pmap
				ref map[term.GVID]*State
			}
			var snaps []snap
			for step := 0; step < 600; step++ {
				k := term.GVID{Object: term.Sym(fmt.Sprintf("o%d", rng.Intn(60)))}
				switch rng.Intn(8) {
				case 0:
					k.Path = term.PathOf(term.Mod)
				case 1:
					k.Object = term.Int(int64(rng.Intn(20)))
				}
				if rng.Intn(3) == 0 {
					m = m.without(k)
					delete(ref, k)
				} else {
					v := NewState()
					m = m.with(k, v)
					ref[k] = v
				}
				if err := pmapMismatch(m, ref); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if step%50 == 0 {
					snaps = append(snaps, snap{m, maps.Clone(ref)})
					checkCanonical(t, fmt.Sprintf("step %d", step), m, reordered(rng, ref))
				}
			}
			for i, s := range snaps {
				if err := pmapMismatch(s.m, s.ref); err != nil {
					t.Fatalf("snapshot %d: %v", i, err)
				}
			}
		})
	}
}

// FuzzPmap runs a byte string of edits on a persistent map and a Go map,
// under the real hash and the constant one: a byte's low two bits pick
// without (0) or with, the rest one of 64 versions. After every edit the
// two must agree and the trie keep its layout, and at the end every earlier
// snapshot must still hold what it held and the map have the shape of one
// built over its keys in another order.
func FuzzPmap(f *testing.F) {
	f.Add([]byte{5, 9, 13, 4, 8, 12})
	f.Add([]byte{1, 1, 0, 0, 5, 0})
	rng := rand.New(rand.NewSource(63))
	for range 8 {
		ops := make([]byte, 16+rng.Intn(240))
		rng.Read(ops)
		f.Add(ops)
	}
	var versions [64]term.GVID
	for i := range versions {
		versions[i] = fuzzVersion(i)
	}
	saved := hashGVID
	defer func() { hashGVID = saved }()
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 256 { // every snapshot is checked: the cost is quadratic
			ops = ops[:256]
		}
		for _, name := range []string{"real", "constant"} {
			hashGVID = pmapHashes[name]
			var m pmap
			ref := map[term.GVID]*State{}
			snaps := make([]pmap, 0, len(ops))
			refs := make([]map[term.GVID]*State, 0, len(ops))
			for i, op := range ops {
				k := versions[op>>2]
				if op&3 == 0 {
					m = m.without(k)
					delete(ref, k)
				} else {
					v := NewState()
					m = m.with(k, v)
					ref[k] = v
				}
				if err := pmapMismatch(m, ref); err != nil {
					t.Fatalf("%s, op %d: %v", name, i, err)
				}
				snaps, refs = append(snaps, m), append(refs, maps.Clone(ref))
			}
			for i := range snaps {
				if err := pmapMismatch(snaps[i], refs[i]); err != nil {
					t.Fatalf("%s, snapshot %d: %v", name, i, err)
				}
			}
			checkCanonical(t, name, m, reordered(rand.New(rand.NewSource(int64(len(ops)))), ref))
		}
	})
}

// fuzzVersion returns the i-th of FuzzPmap's versions: numbers, symbols
// and versions proper.
func fuzzVersion(i int) term.GVID {
	switch i % 3 {
	case 0:
		return term.GVID{Object: term.Int(int64(i))}
	case 1:
		return term.GVID{Object: term.Sym(fmt.Sprintf("o%d", i))}
	}
	return term.GV(term.Sym(fmt.Sprintf("o%d", i)), term.Mod)
}

// reordered returns a map over the keys of ref built in a shuffled order,
// with a decoy key entered before every third one and all the decoys taken
// out again in another order.
func reordered(rng *rand.Rand, ref map[term.GVID]*State) pmap {
	keys := make([]term.GVID, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b term.GVID) int { return a.Compare(b) })
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	var m pmap
	var decoys []term.GVID
	for i, k := range keys {
		if i%3 == 0 {
			d := term.GVID{Object: term.Sym(fmt.Sprintf("decoy%d", i))}
			decoys = append(decoys, d)
			m = m.with(d, NewState())
		}
		m = m.with(k, ref[k])
	}
	rng.Shuffle(len(decoys), func(i, j int) { decoys[i], decoys[j] = decoys[j], decoys[i] })
	for _, d := range decoys {
		m = m.without(d)
	}
	return m
}

// pmapMismatch returns an error unless m holds exactly the entries of ref,
// by len, get and each, and keeps pnode's layout.
func pmapMismatch(m pmap, ref map[term.GVID]*State) error {
	if m.len() != len(ref) {
		return fmt.Errorf("len %d, want %d", m.len(), len(ref))
	}
	if (m.root == nil) != (len(ref) == 0) {
		return fmt.Errorf("a map of %d entries has root %p", len(ref), m.root)
	}
	for k, v := range ref {
		if got, ok := m.get(k); !ok || got != v {
			return fmt.Errorf("get(%s) = %p, %v; want %p", k, got, ok, v)
		}
	}
	if _, ok := m.get(term.GVID{Object: term.Sym("absent")}); ok {
		return fmt.Errorf("found a key never inserted")
	}
	seen := 0
	var err error
	m.each(func(k term.GVID, v *State) bool {
		seen++
		if ref[k] != v {
			err = fmt.Errorf("each yields %s -> %p, want %p", k, v, ref[k])
		}
		return err == nil
	})
	if err != nil {
		return err
	}
	if seen != len(ref) {
		return fmt.Errorf("each yields %d entries, want %d", seen, len(ref))
	}
	return checkLayout(m.root, 0)
}

// checkLayout returns an error unless n and every node below it keep
// pnode's layout: disjoint bitmaps, one slot per set bit, each key in the
// slot its hash selects, buckets only below the last level, and below the
// root no node that holds one leaf and nothing else.
func checkLayout(n *pnode, shift uint) error {
	if n == nil {
		return nil
	}
	if shift > 0 && len(n.leaves) == 1 && len(n.nodes) == 0 {
		return fmt.Errorf("a node at shift %d holds the lone leaf %s", shift, n.leaves[0].key)
	}
	if shift >= 64 {
		if n.datamap|n.nodemap != 0 || len(n.nodes) != 0 {
			return fmt.Errorf("a bucket has bitmaps %x/%x and %d subtrees", n.datamap, n.nodemap, len(n.nodes))
		}
		return nil
	}
	if n.datamap&n.nodemap != 0 || bits.OnesCount32(n.datamap) != len(n.leaves) || bits.OnesCount32(n.nodemap) != len(n.nodes) {
		return fmt.Errorf("a node at shift %d has bitmaps %x/%x over %d leaves and %d subtrees", shift, n.datamap, n.nodemap, len(n.leaves), len(n.nodes))
	}
	for _, l := range n.leaves {
		if bit := bitAt(hashGVID(l.key), shift); n.datamap&bit == 0 || n.leaves[slotIndex(n.datamap, bit)] != l {
			return fmt.Errorf("the leaf of %s is not in the slot its hash selects at shift %d", l.key, shift)
		}
	}
	for _, c := range n.nodes {
		if err := checkLayout(c, shift+pmapBits); err != nil {
			return err
		}
	}
	return nil
}

// checkCanonical fails unless m and other, two maps over one key set, have
// one shape: the same bitmaps, the same key in each leaf slot (a bucket's
// in any order), and subtrees of one shape.
func checkCanonical(t *testing.T, what string, m, other pmap) {
	t.Helper()
	var same func(a, b *pnode) bool
	same = func(a, b *pnode) bool {
		if a == nil || b == nil {
			return a == b
		}
		if a.datamap != b.datamap || a.nodemap != b.nodemap || len(a.leaves) != len(b.leaves) || len(a.nodes) != len(b.nodes) {
			return false
		}
		for i, l := range a.leaves {
			if a.datamap|a.nodemap == 0 { // a bucket
				if !slices.ContainsFunc(b.leaves, func(o *pleaf) bool { return o.key == l.key }) {
					return false
				}
			} else if b.leaves[i].key != l.key {
				return false
			}
		}
		for i := range a.nodes {
			if !same(a.nodes[i], b.nodes[i]) {
				return false
			}
		}
		return true
	}
	if !same(m.root, other.root) {
		t.Fatalf("%s: two maps over %d keys, built in different orders, differ in shape", what, m.len())
	}
}

// TestDeltaLayerPaths holds the list of paths a delta layer keeps for the
// shadow checks of its parent scans: shared by pointer with the layer it
// was derived from until a change brings a new path in, a superset of the
// paths the layer's versions are on, and sound when it lists a path the
// layer no longer holds a version on.
func TestDeltaLayerPaths(t *testing.T) {
	root := New()
	for i := 0; i < 64; i++ {
		o := term.Sym(fmt.Sprintf("o%d", i))
		root.EnsureObject(o)
		root.Insert(term.NewFact(term.GVID{Object: o}, "sal", term.Int(int64(i))))
		if i%2 == 0 {
			root.Insert(term.NewFact(term.GV(o, term.Mod), "sal", term.Int(int64(i))))
		}
	}
	root.Freeze()
	set := func(b *Base, v term.GVID, sal int64) Change {
		s := NewState()
		s.Add(term.MethodKey{Method: "sal"}, term.Int(sal))
		return Change{V: v, Old: b.StateOf(v), New: s}
	}
	mod := term.PathOf(term.Mod)
	mod1 := term.GV(term.Sym("o1"), term.Mod) // a version the root does not hold
	one := root.Derive([]Change{set(root, term.GV(term.Sym("o1")), 7)})
	two := one.Derive([]Change{set(one, term.GV(term.Sym("o3")), 9)})
	three := two.Derive([]Change{set(two, mod1, 5)})
	four := three.Derive([]Change{{V: mod1, Old: three.StateOf(mod1)}})
	for name, b := range map[string]*Base{"one": one, "two": two, "three": three, "four": four} {
		if b.Parent() != root {
			t.Fatalf("%s is not a delta layer over the root", name)
		}
		if !b.eachOwn(func(v term.GVID, _ *State) bool { return b.overridesByPath[v.Path] != 0 }) {
			t.Errorf("%s holds a version on a path its list leaves out", name)
		}
	}
	samePaths := func(a, b *Base) bool {
		return reflect.ValueOf(a.overridesByPath).Pointer() == reflect.ValueOf(b.overridesByPath).Pointer()
	}
	switch {
	case !samePaths(one, two):
		t.Error("a commit on a path the layer holds copied the layer's list of paths")
	case samePaths(two, three) || two.overridesByPath[mod] != 0:
		t.Error("a commit that brings a new path in wrote the list it shares")
	case !samePaths(three, four) || four.overridesByPath[mod] == 0 || four.ownLen() != 2:
		t.Errorf("taking the layer's one version proper out did not keep its path listed (%d entries)", four.ownLen())
	}
	flat := four.Flatten()
	for _, m := range []term.Path{"", mod} {
		got := slices.Collect(four.VIDsWith(m, "sal"))
		want := slices.Collect(flat.VIDsWith(m, "sal"))
		if len(got) != len(want) || len(want) != map[term.Path]int{"": 64, mod: 32}[m] {
			t.Errorf("VIDsWith(%q, sal) yields %d versions, want %d", m, len(got), len(want))
		}
	}
}
