package objectbase_test

import (
	"fmt"
	"math/rand"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/term"
)

// TestInPlaceEditsAnswerLikeARebuild drives the surface the evaluator edits
// version states through — a version shares another's state (SetStateFresh
// of a foreign pointer), goes private (Adopt of a copy with room) and is then
// edited in place (AddTo, RemoveFrom) — with random sequences over an
// overlay, in both index modes, and holds the overlay against a base built
// fact by fact: same facts, same size, same scans and probes, and the
// frozen parent untouched throughout.
func TestInPlaceEditsAnswerLikeARebuild(t *testing.T) {
	for _, liveIndex := range []bool{false, true} {
		t.Run(fmt.Sprintf("liveIndex=%v", liveIndex), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			head := employees(12)
			before := head.Facts()
			ov := objectbase.Overlay(head, nil)
			if liveIndex {
				// The first scan builds the deferred own-layer index and turns
				// its maintenance eager.
				for range ov.VIDsWith(term.PathOf(term.Ins), "sal") {
				}
			}
			model := head.Clone()
			owned := map[term.GVID]*objectbase.State{}
			methods := []string{"sal", "tag", "note"}
			for step := 0; step < 600; step++ {
				o := term.Sym(fmt.Sprintf("e%d", rng.Intn(12)))
				w := term.GV(o, term.Ins)
				if ov.StateOf(w) == nil {
					// w appears sharing its object's frozen state.
					src := head.StateOf(term.GVID{Object: o})
					ov.SetStateFresh(w, src)
					for k, r := range src.All() {
						model.Insert(term.Fact{V: w, Method: k.Method, Args: k.Args, Result: r})
					}
					continue
				}
				st := owned[w]
				if st == nil {
					st = ov.StateOf(w).CloneWithRoom(rng.Intn(3))
					ov.Adopt(w, st)
					owned[w] = st
				}
				key := term.MethodKey{Method: methods[rng.Intn(len(methods))]}
				r := term.Int(int64(rng.Intn(40))) // past the spill threshold now and then
				f := term.Fact{V: w, Method: key.Method, Result: r}
				if rng.Intn(3) > 0 {
					if got, want := ov.AddTo(w, st, key.Intern(), r), model.Insert(f); got != want {
						t.Fatalf("step %d: AddTo %s = %v, model says %v", step, f, got, want)
					}
				} else {
					if got, want := ov.RemoveFrom(w, st, key.Intern(), r), model.Remove(f); got != want {
						t.Fatalf("step %d: RemoveFrom %s = %v, model says %v", step, f, got, want)
					}
				}
			}
			if ov.Size() != model.Size() {
				t.Fatalf("size %d, model %d", ov.Size(), model.Size())
			}
			if err := obtest.SameAnswers(ov, model); err != nil {
				t.Fatal(err)
			}
			if err := obtest.SameAnswers(ov.Freeze(), model.Freeze()); err != nil {
				t.Fatalf("frozen: %v", err)
			}
			if after := head.Facts(); len(after) != len(before) {
				t.Fatalf("the frozen parent changed: %d facts, had %d", len(after), len(before))
			}
			for i, f := range head.Facts() {
				if f != before[i] {
					t.Fatalf("the frozen parent changed at %v", f)
				}
			}
		})
	}
}

// TestFinalEquals: the copy phase's "unchanged" test agrees with building
// the final copy and comparing, allocates nothing, and tells a state that is
// not in final form from one that is.
func TestFinalEquals(t *testing.T) {
	o := term.Sym("o")
	exists := term.MethodKey{Method: term.ExistsMethod}
	mk := func(build func(s *objectbase.State)) *objectbase.State {
		s := objectbase.NewState()
		build(s)
		return s
	}
	settled := mk(func(s *objectbase.State) {
		s.Add(exists, o)
		s.Add(term.MethodKey{Method: "m"}, term.Int(1))
		s.Add(term.MethodKey{Method: "m"}, term.Int(2))
	})
	big := mk(func(s *objectbase.State) { // past the index threshold
		s.Add(exists, o)
		for i := 0; i < 40; i++ {
			s.Add(term.MethodKey{Method: "m"}, term.Int(int64(i)))
		}
	})
	cases := []struct {
		name string
		s, t *objectbase.State
	}{
		{"same pointer, settled", settled, settled},
		{"same pointer, spilled", big, big},
		{"equal copy", settled.Clone(), settled},
		{"version's exists differs only", mk(func(s *objectbase.State) {
			s.Add(exists, term.Sym("other"))
			s.Add(term.MethodKey{Method: "m"}, term.Int(1))
			s.Add(term.MethodKey{Method: "m"}, term.Int(2))
		}), settled},
		{"one result more", mk(func(s *objectbase.State) {
			s.Add(exists, o)
			s.Add(term.MethodKey{Method: "m"}, term.Int(1))
			s.Add(term.MethodKey{Method: "m"}, term.Int(2))
			s.Add(term.MethodKey{Method: "m"}, term.Int(3))
		}), settled},
		{"one result fewer", mk(func(s *objectbase.State) {
			s.Add(exists, o)
			s.Add(term.MethodKey{Method: "m"}, term.Int(1))
		}), settled},
		{"same pointer, foreign exists", mk(func(s *objectbase.State) {
			s.Add(exists, o)
			s.Add(exists, term.Sym("other"))
			s.Add(term.MethodKey{Method: "m"}, term.Int(1))
		}), nil},
	}
	for _, c := range cases {
		other := c.t
		if other == nil {
			other = c.s
		}
		want := c.s.CloneFinal(o).Equal(other)
		if got := c.s.FinalEquals(o, other); got != want {
			t.Errorf("%s: FinalEquals = %v, CloneFinal().Equal = %v", c.name, got, want)
		}
		if n := testing.AllocsPerRun(5, func() { c.s.FinalEquals(o, other) }); n != 0 {
			t.Errorf("%s: FinalEquals allocates %.0f times", c.name, n)
		}
	}
}
