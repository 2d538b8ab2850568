package objectbase

import (
	"fmt"
	"iter"
	"slices"
	"testing"

	"verlog/internal/term"
)

// iterBases builds every form a base reads through: a root; an overlay that
// shadows one version of the root and tombstones another; a delta layer of
// Derive, large enough that its trie has subtrees; and a three-layer chain,
// an overlay over that delta layer with a shadow and a tombstone of its own.
// All are frozen.
func iterBases(t *testing.T) map[string]*Base {
	t.Helper()
	mod := term.PathOf(term.Mod)
	root := New()
	for i := range 400 {
		o := fmt.Sprintf("o%d", i)
		root.EnsureObject(term.Sym(o))
		root.Insert(fact(o, "", "sal", term.Int(int64(1000+i))))
		root.Insert(fact(o, "", "isa", term.Sym("empl")))
		for a := range 3 {
			root.Insert(term.Fact{V: term.GV(term.Sym(o)), Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(int64(a))}), Result: term.Int(int64(i + a))})
		}
		if i%4 == 0 {
			root.Insert(fact(o, mod, "sal", term.Int(int64(2000+i))))
		}
	}
	root.Freeze()

	overlay := Overlay(root, nil)
	overlay.Insert(fact("o1", "", "sal", term.Int(9)))       // shadows o1
	overlay.SetState(term.GV(term.Sym("o2")), nil)           // tombstones o2
	overlay.SetState(term.GV(term.Sym("o4"), term.Mod), nil) // and mod(o4)
	overlay.Insert(fact("n1", mod, "sal", term.Int(7)))      // a version of its own
	overlay.Freeze()

	changes := []Change{
		{V: term.GV(term.Sym("o5")), Old: root.StateOf(term.GV(term.Sym("o5")))},
		{V: term.GV(term.Sym("n2"), term.Mod), New: stateOfEntries([]appEntry{{term.MethodKey{Method: "sal"}.Intern(), term.Int(8)}})},
	}
	for i := 10; i < 30; i++ {
		v := term.GV(term.Sym(fmt.Sprintf("o%d", i)))
		changed := root.StateOf(v).Clone()
		changed.Add(term.MethodKey{Method: "sal"}, term.Int(int64(i)))
		changes = append(changes, Change{V: v, Old: root.StateOf(v), New: changed})
	}
	delta := root.Derive(changes)
	if delta.Parent() != root || delta.at != nil {
		t.Fatalf("Derive of %d versions over %d built no delta layer", len(changes), root.ownLen())
	}
	if len(delta.delta.root.nodes) == 0 {
		t.Fatalf("the delta layer's trie of %d entries has no subtree", delta.ownLen())
	}

	chain := Overlay(delta, nil)
	chain.Insert(fact("o13", "", "sal", term.Int(33))) // shadows the delta's o13
	chain.SetState(term.GV(term.Sym("o6")), nil)       // tombstones the root's o6
	chain.Insert(fact("o8", mod, "sal", term.Int(88))) // shadows the root's mod(o8)
	chain.Freeze()
	if chain.Depth() != 2 {
		t.Fatalf("chain depth %d, want 2", chain.Depth())
	}
	return map[string]*Base{"root": root, "overlay": overlay, "delta": delta, "chain": chain}
}

// iterCase is one iterator over a base, its items rendered.
type iterCase struct {
	name string
	seq  func(b *Base) iter.Seq[string]
}

func seq1[V any](s iter.Seq[V]) iter.Seq[string] {
	return func(yield func(string) bool) {
		for v := range s {
			if !yield(fmt.Sprint(v)) {
				return
			}
		}
	}
}

func seq2[K, V any](s iter.Seq2[K, V]) iter.Seq[string] {
	return func(yield func(string) bool) {
		for k, v := range s {
			if !yield(fmt.Sprint(k, v)) {
				return
			}
		}
	}
}

func iterCases() []iterCase {
	o1 := term.GV(term.Sym("o1"))
	sal := term.MethodKey{Method: "sal"}
	return []iterCase{
		{"FactsOf", func(b *Base) iter.Seq[string] { return seq1(b.FactsOf(o1)) }},
		{"VIDsWith", func(b *Base) iter.Seq[string] { return seq1(b.VIDsWith("", "sal")) }},
		{"VIDsWith mod", func(b *Base) iter.Seq[string] { return seq1(b.VIDsWith(term.PathOf(term.Mod), "sal")) }},
		{"VIDsWithMethod", func(b *Base) iter.Seq[string] { return seq1(b.VIDsWithMethod("sal")) }},
		{"Results", func(b *Base) iter.Seq[string] { return seq1(b.Results(o1, sal)) }},
		{"OfMethod", func(b *Base) iter.Seq[string] { return seq2(b.OfMethod(o1, "rate")) }},
		{"State.All", func(b *Base) iter.Seq[string] { return seq2(b.StateOf(o1).All()) }},
		{"State.OfMethod", func(b *Base) iter.Seq[string] { return seq2(b.StateOf(o1).OfMethod("rate")) }},
		{"State.Results", func(b *Base) iter.Seq[string] { return seq1(b.StateOf(o1).Results(sal)) }},
		{"eachState", func(b *Base) iter.Seq[string] { return seq2(b.eachState) }},
	}
}

// TestIteratorsStop breaks every iterator of the package after k items, on
// every base form, for every k up to 64 (past every own layer) and a sample
// beyond: the walk hands out k distinct items of the full walk and nothing
// after the break (range-over-func panics on a yield after false, so a
// layer that missed the stop fails the test). Walks over a map order their
// items afresh each time, so the k items are checked as a subset of the
// full walk, not as its prefix.
func TestIteratorsStop(t *testing.T) {
	for name, b := range iterBases(t) {
		for _, c := range iterCases() {
			full := slices.Collect(c.seq(b))
			if len(full) == 0 {
				t.Fatalf("%s over %s yields nothing", c.name, name)
			}
			if !distinct(full) {
				t.Fatalf("%s over %s yields an item twice: %v", c.name, name, full)
			}
			inFull := make(map[string]bool, len(full))
			for _, s := range full {
				inFull[s] = true
			}
			for k := 0; k < len(full); k += max(1, (k-64)/8) {
				var got []string
				for s := range c.seq(b) {
					if len(got) == k {
						break
					}
					got = append(got, s)
				}
				if len(got) != k {
					t.Fatalf("%s over %s, break after %d: got %d items", c.name, name, k, len(got))
				}
				for _, s := range got {
					if !inFull[s] {
						t.Fatalf("%s over %s, break after %d: %s is not in the full walk %v", c.name, name, k, s, full)
					}
				}
				if !distinct(got) {
					t.Fatalf("%s over %s, break after %d: an item twice in %v", c.name, name, k, got)
				}
			}
		}
	}
}

func distinct(items []string) bool {
	return len(slices.Compact(slices.Sorted(slices.Values(items)))) == len(items)
}

// TestIteratorsAllocateNothing: a ranged loop that breaks early over any of
// the exported iterators of a frozen base allocates nothing, whatever the
// base's form — the iterator and the loop body stay on the stack.
func TestIteratorsAllocateNothing(t *testing.T) {
	o1 := term.GV(term.Sym("o1"))
	sal := term.MethodKey{Method: "sal"}
	mod := term.PathOf(term.Mod)
	for name, b := range iterBases(t) {
		st := b.StateOf(o1)
		loops := map[string]func() int{
			"FactsOf": func() (n int) {
				for range b.FactsOf(o1) {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"VIDsWith": func() (n int) {
				for range b.VIDsWith(mod, "sal") {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"VIDsWithMethod": func() (n int) {
				for range b.VIDsWithMethod("sal") {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"Results": func() (n int) {
				for range b.Results(o1, sal) {
					if n++; n == 1 {
						break
					}
				}
				return n
			},
			"OfMethod": func() (n int) {
				for range b.OfMethod(o1, "rate") {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"State.All": func() (n int) {
				for range st.All() {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"State.OfMethod": func() (n int) {
				for range st.OfMethod("rate") {
					if n++; n == 2 {
						break
					}
				}
				return n
			},
			"State.Results": func() (n int) {
				for range st.Results(sal) {
					if n++; n == 1 {
						break
					}
				}
				return n
			},
		}
		for what, loop := range loops {
			if loop() == 0 {
				t.Fatalf("%s over %s yields nothing", what, name)
			}
			if allocs := testing.AllocsPerRun(100, func() { loop() }); allocs != 0 {
				t.Errorf("%s over %s: %.1f allocations per loop, want 0", what, name, allocs)
			}
		}
	}
}
