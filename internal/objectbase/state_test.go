package objectbase

import (
	"fmt"
	"maps"
	"math/rand/v2"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"verlog/internal/term"
)

// The tests below hold State to a plain set of applications, across the
// size at which it starts keeping its position index.

var modelMethods = []string{"a", "b", "c", term.ExistsMethod}

// app is one application as the model holds it: its key by value, not
// interned as a State holds it.
type app struct {
	key term.MethodKey
	r   term.OID
}

// randomEntry draws from 4 methods × 2 argument tuples × 40 results: room
// for a state of a few hundred applications, and enough repeats that Add
// meets its duplicates and Remove its absentees. Each method name is a
// fresh copy, so that a key never equals another by its string's pointer.
func randomEntry(rng *rand.Rand) app {
	k := term.MethodKey{Method: strings.Clone(modelMethods[rng.IntN(len(modelMethods))])}
	if rng.IntN(2) == 0 {
		k.Args = term.EncodeOIDs([]term.OID{term.Int(1)})
	}
	return app{key: k, r: term.Int(int64(rng.IntN(40)))}
}

// checkModel fails unless s holds exactly the applications of ref, once
// each, and its index is there exactly when it is large and points at every
// entry.
func checkModel(t *testing.T, s *State, ref map[app]bool) {
	t.Helper()
	if s.Size() != len(ref) || s.Empty() != (len(ref) == 0) {
		t.Fatalf("Size %d, Empty %v; the model holds %d", s.Size(), s.Empty(), len(ref))
	}
	seen := map[app]bool{}
	for k, r := range s.All() {
		e := app{k, r}
		if seen[e] || !ref[e] {
			t.Fatalf("All yields %v twice or outside the model", e)
		}
		seen[e] = true
	}
	if len(seen) != len(ref) {
		t.Fatalf("All yields %d applications, the model holds %d", len(seen), len(ref))
	}
	if (s.pos != nil) != (len(s.entries) > stateIndexThreshold) {
		t.Fatalf("%d entries with index %v, want an index exactly past %d", len(s.entries), s.pos != nil, stateIndexThreshold)
	}
	if s.pos != nil {
		if len(s.pos) != len(s.entries) {
			t.Fatalf("the index has %d positions for %d entries", len(s.pos), len(s.entries))
		}
		for i, e := range s.entries {
			if s.pos[e] != int32(i) {
				t.Fatalf("the index puts %v at %d, it is at %d", e, s.pos[e], i)
			}
		}
	}
	onlyExists, methods := true, map[string]int{}
	for e := range ref {
		onlyExists = onlyExists && e.key.Method == term.ExistsMethod
		methods[e.key.Method]++
	}
	if s.OnlyExists() != onlyExists {
		t.Fatalf("OnlyExists = %v, want %v", s.OnlyExists(), onlyExists)
	}
	got := map[string]int{}
	s.forEachMethod(func(m string) { got[m]++ })
	for m := range methods {
		if got[m] != 1 {
			t.Fatalf("forEachMethod yields %q %d times, want once", m, got[m])
		}
	}
	if len(got) != len(methods) {
		t.Fatalf("forEachMethod yields %v, the model applies %v", got, methods)
	}
	for _, m := range modelMethods {
		n := 0
		for k, r := range s.OfMethod(m) {
			if k.Method != m || !ref[app{k, r}] {
				t.Fatalf("OfMethod(%q) yields %v -> %v", m, k, r)
			}
			n++
		}
		if n != methods[m] || s.HasAnyOfMethod(m) != (n > 0) {
			t.Fatalf("OfMethod(%q) yields %d, HasAnyOfMethod %v; the model holds %d", m, n, s.HasAnyOfMethod(m), methods[m])
		}
	}
}

// probe compares the point reads of s on one drawn application.
func probe(t *testing.T, s *State, ref map[app]bool, e app) {
	t.Helper()
	if s.Has(e.key, e.r) != ref[e] || s.HasKey(e.key.Intern(), e.r) != ref[e] {
		t.Fatalf("Has(%v) = %v, want %v", e, !ref[e], ref[e])
	}
	want := 0
	for f := range ref {
		if f.key == e.key {
			want++
		}
	}
	n := 0
	for r := range s.Results(e.key) {
		if !ref[app{e.key, r}] {
			t.Fatalf("Results(%v) yields %v outside the model", e.key, r)
		}
		n++
	}
	if n != want || s.HasMethod(e.key) != (want > 0) {
		t.Fatalf("Results(%v) yields %d, HasMethod %v; the model holds %d", e.key, n, s.HasMethod(e.key), want)
	}
}

// checkClones builds every Clone variant of s and holds each to the model's
// transformation; mutating a clone leaves s as it was.
func checkClones(t *testing.T, rng *rand.Rand, s *State, ref map[app]bool) {
	t.Helper()
	drop := func(method string) map[app]bool {
		out := maps.Clone(ref)
		maps.DeleteFunc(out, func(e app, _ bool) bool { return e.key.Method == method })
		return out
	}
	method := modelMethods[rng.IntN(len(modelMethods))]
	o := term.Int(int64(rng.IntN(3)))
	final := drop(term.ExistsMethod)
	final[app{term.MethodKey{Method: term.ExistsMethod}, o}] = true
	for _, c := range []struct {
		name string
		s    *State
		want map[app]bool
	}{
		{"Clone", s.Clone(), ref},
		{"CloneWithRoom", s.CloneWithRoom(rng.IntN(50)), ref},
		{"CloneWithoutMethod", s.CloneWithoutMethod(method), drop(method)},
		{"CloneFinal", s.CloneFinal(o), final},
	} {
		t.Run(c.name, func(t *testing.T) {
			checkModel(t, c.s, c.want)
			if got, want := s.FinalEquals(o, c.s), maps.Equal(c.want, final); got != want {
				t.Fatalf("FinalEquals(%v) = %v, want %v", o, got, want)
			}
			for range 30 {
				if e := randomEntry(rng); rng.IntN(2) == 0 {
					c.s.Add(e.key, e.r)
				} else {
					c.s.Remove(e.key, e.r)
				}
			}
			checkModel(t, s, ref)
		})
	}
	if s.settledFor(o) != (!s.OnlyExists() && maps.Equal(ref, final)) {
		t.Fatalf("settledFor(%v) = %v on %d applications", o, s.settledFor(o), len(ref))
	}
}

// TestStateAgainstModel drives a state through random edits that grow it
// past the index threshold to about 200 applications and shrink it back,
// twice, checking every read against the model after every edit and every
// Clone variant at intervals.
func TestStateAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	s, ref := NewState(), map[app]bool{}
	crossed := 0
	for cycle := 0; cycle < 2; cycle++ {
		for _, grow := range []bool{true, false} {
			for step := 0; ; step++ {
				if grow && len(ref) >= 200 || !grow && len(ref) < 10 {
					break
				}
				e := randomEntry(rng)
				if !grow && len(ref) > 0 && rng.IntN(4) != 0 {
					in := s.entries[rng.IntN(len(s.entries))] // present, if the state is right
					e = app{in.key(), in.r}
				}
				before := len(ref) > stateIndexThreshold
				if add := grow == (rng.IntN(5) != 0); add {
					if s.Add(e.key, e.r) == ref[e] {
						t.Fatalf("Add(%v) reports new = %v, the model had it: %v", e, !ref[e], ref[e])
					}
					ref[e] = true
				} else {
					if s.Remove(e.key, e.r) != ref[e] {
						t.Fatalf("Remove(%v) reports present = %v, want %v", e, !ref[e], ref[e])
					}
					delete(ref, e)
				}
				if before != (len(ref) > stateIndexThreshold) {
					crossed++
				}
				checkModel(t, s, ref)
				probe(t, s, ref, randomEntry(rng))
				if step%25 == 0 {
					checkClones(t, rng, s, ref)
				}
			}
		}
	}
	if crossed < 4 {
		t.Fatalf("the walk crossed the index threshold %d times, want ≥ 4", crossed)
	}
}

// TestStatePairsAgainstModel holds Equal, sameOfMethod and methodsMoved to
// the model on pairs on either side of the threshold: an edited copy (the
// copy phase's case, most entries where they were) and an independent state,
// and a nil state, which applies nothing.
func TestStatePairsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	build := func(n int) (*State, map[app]bool) {
		s, ref := NewState(), map[app]bool{}
		for len(ref) < n {
			e := randomEntry(rng)
			s.Add(e.key, e.r)
			ref[e] = true
		}
		return s, ref
	}
	edit := func(s *State, ref map[app]bool, edits int) (*State, map[app]bool) {
		s, ref = s.Clone(), maps.Clone(ref)
		for range edits {
			e := randomEntry(rng)
			if rng.IntN(2) == 0 {
				s.Add(e.key, e.r)
				ref[e] = true
			} else {
				s.Remove(e.key, e.r)
				delete(ref, e)
			}
		}
		return s, ref
	}
	sizes := []int{0, 3, 20, 24, 25, 30, 100, 200}
	for _, n := range sizes {
		for _, m := range sizes {
			s, sref := build(n)
			t1, tref1 := edit(s, sref, rng.IntN(8))
			t2, tref2 := build(m)
			for i, p := range []struct {
				t    *State
				tref map[app]bool
			}{{s, sref}, {t1, tref1}, {t2, tref2}, {nil, nil}} {
				t.Run(fmt.Sprintf("%d-%d/%d", n, m, i), func(t *testing.T) { checkPair(t, s, p.t, sref, p.tref) })
			}
		}
	}
	checkPair(t, nil, nil, nil, nil)
}

func checkPair(t *testing.T, s, u *State, sref, uref map[app]bool) {
	t.Helper()
	applies := func(ref map[app]bool, m string) bool {
		for e := range ref {
			if e.key.Method == m {
				return true
			}
		}
		return false
	}
	if s != nil && u != nil && s.Equal(u) != maps.Equal(sref, uref) {
		t.Fatalf("Equal = %v, want %v", s.Equal(u), maps.Equal(sref, uref))
	}
	calls := map[string]int{}
	methodsMoved(s, u, func(m string, entered bool) {
		calls[m]++
		if entered != applies(uref, m) || applies(sref, m) == applies(uref, m) {
			t.Fatalf("methodsMoved reports %q entered = %v; s applies it: %v, t: %v", m, entered, applies(sref, m), applies(uref, m))
		}
	})
	for _, m := range modelMethods {
		if moved := applies(sref, m) != applies(uref, m); moved != (calls[m] == 1) {
			t.Fatalf("methodsMoved reports %q %d times, want %v", m, calls[m], moved)
		}
		of := func(ref map[app]bool) map[app]bool {
			out := maps.Clone(ref)
			maps.DeleteFunc(out, func(e app, _ bool) bool { return e.key.Method != m })
			return out
		}
		if want := maps.Equal(of(sref), of(uref)); s.sameOfMethod(u, m) != want {
			t.Fatalf("sameOfMethod(%q) = %v, want %v", m, !want, want)
		}
	}
}

// TestStateConcurrentReads: the readers of a frozen state never write it —
// its index is built by the mutators alone — so eight goroutines reading a
// state of 100 applications while a clone of it is edited race on nothing
// (run it under -race).
func TestStateConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	frozen := NewState()
	for frozen.Size() < 100 {
		e := randomEntry(rng)
		frozen.Add(e.key, e.r)
	}
	probes := make([]app, 64)
	for i := range probes {
		probes[i] = randomEntry(rng)
	}
	want := frozen.Clone()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				e := probes[(g+i)%len(probes)]
				frozen.Has(e.key, e.r)
				frozen.HasMethod(e.key)
				for range frozen.Results(e.key) {
				}
				frozen.forEachMethod(func(string) {})
				frozen.sameOfMethod(want, e.key.Method)
				methodsMoved(frozen, want, func(string, bool) {})
				if !frozen.Equal(want) {
					t.Error("a frozen state changed under its readers")
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := frozen.Clone()
		for i := 0; i < 2000; i++ {
			if e := probes[i%len(probes)]; i%3 == 0 {
				c.Remove(e.key, e.r)
			} else {
				c.Add(e.key, e.r)
			}
		}
	}()
	wg.Wait()
}

// TestStateLayout pins what a copied state costs: an application is an
// interned key and a result (DESIGN.md "One form of a state"); and what a
// commit's path copy of the delta layer costs: a trie node is two bitmaps
// and two slices of pointers, and an entry a leaf of a version and a state
// pointer, made once per changed version and then shared.
func TestStateLayout(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"appEntry", unsafe.Sizeof(appEntry{}), 24},
		{"State", unsafe.Sizeof(State{}), 32},
		{"pleaf", unsafe.Sizeof(pleaf{}), 40},
		{"pnode", unsafe.Sizeof(pnode{}), 56},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestStateKeyEquality holds the rules of key equality in both forms of a
// state, scanned and indexed: keys equal by value are one key whatever
// their strings' backing, and keys that differ in their arguments or in
// their method alone are two.
func TestStateKeyEquality(t *testing.T) {
	one := term.EncodeOIDs([]term.OID{term.Int(1)})
	two := term.EncodeOIDs([]term.OID{term.Int(2)})
	r := term.Sym("r")
	for _, filler := range []int{3, stateIndexThreshold + 6} {
		build := func() *State {
			s := NewState()
			for i := range filler {
				s.Add(term.MethodKey{Method: "fill"}, term.Int(int64(i)))
			}
			return s
		}
		t.Run(fmt.Sprintf("%d-entries", filler), func(t *testing.T) {
			k := term.MethodKey{Method: "sal", Args: one}
			same := term.MethodKey{Method: strings.Clone("s") + "al", Args: term.EncodeOIDs([]term.OID{term.Int(1)})}
			if unsafe.StringData(k.Method) == unsafe.StringData(same.Method) {
				t.Fatal("the test's keys share their method's backing")
			}
			s := build()
			if !s.Add(k, r) || s.Add(same, r) || s.Size() != filler+1 {
				t.Fatalf("equal keys of different backings are two entries (%d)", s.Size())
			}
			if !s.Has(same, r) || !s.HasKey(same.Intern(), r) || !s.HasMethod(same) {
				t.Fatal("a key equal by value is not found")
			}
			n := 0
			for range s.Results(same) {
				n++
			}
			if n != 1 || !s.Remove(same, r) || s.Has(k, r) || s.Size() != filler {
				t.Fatalf("Results yields %d; removing by an equal key leaves %d entries", n, s.Size())
			}
			if (s.pos != nil) != (filler > stateIndexThreshold) {
				t.Fatalf("%d entries, index %v", s.Size(), s.pos != nil)
			}
			for _, other := range []term.MethodKey{
				{Method: "sal", Args: two},                 // differs in its arguments alone
				{Method: strings.Clone("wage"), Args: one}, // in its method alone
			} {
				s := build()
				if !s.Add(k, r) || !s.Add(other, r) || s.Size() != filler+2 {
					t.Fatalf("%v and %v are one entry", k, other)
				}
				if !s.Remove(other, r) || !s.Has(k, r) || s.Has(other, r) || s.HasMethod(other) {
					t.Fatalf("removing %v takes %v with it, or leaves itself", other, k)
				}
			}
		})
	}
}
