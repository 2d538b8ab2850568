package objectbase_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/objectbase/obtest"
	"verlog/internal/term"
)

// changeKinds are the ways randomChanges lets one version differ; a
// tombstone is a "deleted" that lands in a delta layer over a root that
// still holds the version.
var changeKinds = []string{"gained", "lost", "deleted", "created", "one method"}

// randomChanges draws n changes of distinct versions against head — objects
// and mod-versions of objects, some not in the base yet — and counts the
// kinds it drew.
func randomChanges(rng *rand.Rand, head *objectbase.Base, n, step int, drawn map[string]int) []objectbase.Change {
	exists := term.MethodKey{Method: term.ExistsMethod}
	sal := term.MethodKey{Method: "sal"}
	var changes []objectbase.Change
	taken := map[term.GVID]bool{}
	for len(changes) < n {
		v := obj(fmt.Sprintf("e%d", rng.Intn(56))) // e48..e55 are not in the first root
		if rng.Intn(4) == 0 {
			v = v.Push(term.Mod)
		}
		if taken[v] {
			continue
		}
		taken[v] = true
		old := head.StateOf(v)
		kind := changeKinds[rng.Intn(len(changeKinds))]
		if old == nil {
			kind = "created"
		} else if kind == "created" {
			kind = "one method"
		}
		var ns *objectbase.State
		switch kind {
		case "gained":
			ns = old.Clone()
			if !ns.Add(term.MethodKey{Method: "note"}, term.Int(int64(step))) {
				continue
			}
		case "lost":
			lose := []string{"rate", "sal", "note"}[rng.Intn(3)]
			if !old.HasAnyOfMethod(lose) {
				continue
			}
			ns = old.CloneWithoutMethod(lose)
		case "deleted":
		case "created":
			ns = objectbase.NewState()
			ns.Add(exists, v.Object)
			ns.Add(term.MethodKey{Method: "isa"}, term.Sym("empl"))
			ns.Add(sal, term.Int(int64(rng.Intn(8))))
			ns.Add(term.MethodKey{Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(int64(step % 3))})}, term.Int(int64(step)))
		case "one method":
			ns = old.CloneWithoutMethod("sal")
			ns.Add(sal, term.Int(int64(1000+step)))
		}
		drawn[kind]++
		changes = append(changes, objectbase.Change{V: v, Old: old, New: ns})
	}
	return changes
}

// readSome makes the head look like one readers have used: with scan set it
// builds the VID index of its root, and it probes the partitions of a random
// half of the (path, method) pairs seen so far (which reads states, not the
// VID index).
func readSome(rng *rand.Rand, head *objectbase.Base, pairs map[[2]string]bool, scan bool) {
	if scan {
		for range head.VIDsWith("", "isa") {
		}
	}
	for pm := range pairs {
		if rng.Intn(2) == 0 {
			head.Index().VIDsWithResult(term.Path(pm[0]), pm[1], term.Sym("empl"))
		}
	}
}

// history collects every (path, method) pair and every probe a sequence of
// bases has ever had an answer for, so that a base can be asked about what it
// no longer holds — where a set or a partition carried over from its
// predecessor would still answer.
type history struct {
	pairs  map[[2]string]bool
	probes map[term.Fact]bool // V holds the path only
}

func (h *history) note(b *objectbase.Base) {
	for _, f := range b.Facts() {
		h.pairs[[2]string{string(f.V.Path), f.Method}] = true
		h.probes[term.Fact{V: term.GVID{Path: f.V.Path}, Method: f.Method, Args: f.Args, Result: f.Result}] = true
	}
}

// check holds got against want, a flat rebuild of it, on everything the
// history knows. Probe answers are compared as multisets: a live hit
// reported twice is a difference.
func (h *history) check(got, want *objectbase.Base) error {
	for pm := range h.pairs {
		if err := obtest.SameScans(got, want, term.Path(pm[0]), pm[1]); err != nil {
			return err
		}
	}
	ig, iw := got.Index(), want.Index()
	set := func(hits objectbase.Hits) map[term.GVID]int {
		out := map[term.GVID]int{}
		for i := 0; i < hits.Len(); i++ {
			if v, ok := hits.At(i); ok {
				out[v]++
			}
		}
		return out
	}
	for f := range h.probes {
		if g, w := set(ig.VIDsWithResult(f.V.Path, f.Method, f.Result)), set(iw.VIDsWithResult(f.V.Path, f.Method, f.Result)); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("VIDsWithResult(%q, %s, %s): %v, a rebuild answers %v", f.V.Path, f.Method, f.Result, g, w)
		}
		if a0, ok := f.Args.First(); ok {
			if g, w := set(ig.VIDsWithArg(f.V.Path, f.Method, a0)), set(iw.VIDsWithArg(f.V.Path, f.Method, a0)); !reflect.DeepEqual(g, w) {
				return fmt.Errorf("VIDsWithArg(%q, %s, %s): %v, a rebuild answers %v", f.V.Path, f.Method, a0, g, w)
			}
		}
	}
	return nil
}

// TestNewRootInheritsLikeARebuild drives random Derive sequences across the
// flatten threshold, from a root and from a root under a delta layer, with
// every kind of change, on heads that have been scanned and probed and on
// heads nobody has read. A new root whose predecessor's VID index was built
// is born with its own and with the partitions no change touched, one whose
// predecessor's was not still defers; either way it answers every scan, count
// and probe like a flat rebuild of itself.
func TestNewRootInheritsLikeARebuild(t *testing.T) {
	for _, liveIndex := range []bool{true, false} {
		t.Run(fmt.Sprintf("liveIndex=%v", liveIndex), func(t *testing.T) {
			rng := rand.New(rand.NewSource(11))
			head := employees(48) // maintained its VID index while it was built
			hist := &history{pairs: map[[2]string]bool{}, probes: map[term.Fact]bool{}}
			hist.note(head)
			drawn := map[string]int{}
			var fromRoot, fromDelta, inherited, deferred, carried, tombstones int
			// unread holds the roots no reader gets to scan while they are the
			// head's: their successors have nothing to inherit.
			unread := map[*objectbase.Base]bool{}
			for step := 0; step < 200; step++ {
				n := 1 + rng.Intn(2)
				if rng.Intn(6) == 0 {
					n = 4 + rng.Intn(20) // past the threshold at once
				}
				if !liveIndex && step%20 == 0 {
					// A restart: the head comes back as one root with nothing
					// built, and this time nobody scans it before it is replaced.
					head = head.Clone().Freeze()
					unread[head] = true
				}
				root := head
				if head.Parent() != nil {
					root = head.Parent()
				}
				readSome(rng, head, hist.pairs, !unread[root])
				wasDeferred := root.VIDIndexDeferred()
				changes := randomChanges(rng, head, n, step, drawn)
				for _, c := range changes {
					if c.New == nil && head.Parent() != nil && root.StateOf(c.V) != nil {
						tombstones++
					}
				}
				next := head.Derive(changes)
				if next.Parent() == nil {
					if head.Parent() == nil {
						fromRoot++
					} else {
						fromDelta++
					}
					if next.VIDIndexDeferred() != wasDeferred {
						t.Fatalf("step %d: new root defers its VID index: %v, its predecessor did: %v", step, next.VIDIndexDeferred(), wasDeferred)
					}
					if wasDeferred {
						deferred++
					} else {
						inherited++
					}
					carried += len(next.Index().Partitions())
					if wasDeferred && rng.Intn(2) == 0 {
						unread[next] = true
					}
				}
				if unread[root] {
					// Nothing may scan this root, and a scan of a delta layer over
					// it would: hold the contents only.
					replayed := head.Clone()
					objectbase.DiffChanges(changes).Apply(replayed)
					if !replayed.Equal(next) {
						t.Fatalf("step %d: applying the diff to head does not yield the derived base", step)
					}
					head = next
					continue
				}
				// The checks read a twin, so that the head the sequence goes on
				// from has had the readers readSome gave it and no others.
				twin := head.Derive(changes)
				hist.note(twin)
				if err := obtest.CheckDerived(head, twin, changes); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if err := hist.check(twin, twin.Clone().Freeze()); err != nil {
					t.Fatalf("step %d (depth %d): %v", step, twin.Depth(), err)
				}
				head = next
			}
			for _, kind := range changeKinds {
				if drawn[kind] < 10 {
					t.Errorf("only %d changes of kind %q", drawn[kind], kind)
				}
			}
			if fromRoot < 5 || fromDelta < 5 || tombstones < 5 || inherited < 10 || carried < 10 {
				t.Errorf("new roots: %d from a root, %d from a root under a delta layer (%d tombstones); %d inherited, carrying %d partitions",
					fromRoot, fromDelta, tombstones, inherited, carried)
			}
			if !liveIndex && deferred < 3 {
				t.Errorf("%d new roots deferred their index, want some: a third of the roots is never scanned", deferred)
			}
		})
	}
}

// TestNewRootSharesUnchangedSetsGuard: a change that gives half the versions
// one new method builds that method's set and shares every other set — and
// every partition but those of methods the change rewrote — with the root it
// replaces; nothing is rebuilt by the first reader.
func TestNewRootSharesUnchangedSetsGuard(t *testing.T) {
	root := employees(64)
	for _, m := range []string{"isa", "sal", "rate"} {
		root.Index().VIDsWithResult("", m, term.Sym("empl"))
	}
	var changes []objectbase.Change
	for i := 0; i < 32; i++ {
		v := obj(fmt.Sprintf("e%d", 2*i))
		ns := root.StateOf(v).Clone()
		ns.Add(term.MethodKey{Method: "flag"}, term.Sym("yes"))
		if i == 0 {
			ns.Remove(term.MethodKey{Method: "sal"}, term.Int(100))
			ns.Add(term.MethodKey{Method: "sal"}, term.Int(7))
		}
		changes = append(changes, objectbase.Change{V: v, Old: root.StateOf(v), New: ns})
	}
	next := root.Derive(changes)
	if next.Parent() != nil || next.VIDIndexDeferred() {
		t.Fatalf("32 changes of 64 versions: depth %d, VID index deferred: %v; want a new root born with its index", next.Depth(), next.VIDIndexDeferred())
	}
	shared, own := next.VIDSetsSharedWith(root)
	if want := []string{".exists", ".isa", ".rate", ".sal"}; !reflect.DeepEqual(shared, want) {
		t.Errorf("sets shared with the old root: %v, want %v", shared, want)
	}
	if want := []string{".flag"}; !reflect.DeepEqual(own, want) {
		t.Errorf("sets built for the new root: %v, want %v", own, want)
	}
	if got, want := next.Index().Partitions(), []string{"isa", "rate"}; !reflect.DeepEqual(got, want) {
		t.Errorf("partitions carried over: %v, want %v (sal changed in e0)", got, want)
	}
	for _, m := range []string{"isa", "rate"} {
		if next.Index().BuiltPartition("", m) != root.Index().BuiltPartition("", m) {
			t.Errorf("the %s partition was rebuilt, not carried over", m)
		}
	}
	if n := next.CountVIDsWith("", "flag"); n != 32 {
		t.Errorf("CountVIDsWith flag = %d, want 32", n)
	}
	if err := obtest.CheckDerived(root, next, changes); err != nil {
		t.Fatal(err)
	}
	// The old root is what it was.
	if n := root.CountVIDsWith("", "flag"); n != 0 {
		t.Errorf("the old root lists %d versions under flag", n)
	}
	if err := obtest.SameAnswers(root, root.Clone().Freeze()); err != nil {
		t.Fatalf("old root: %v", err)
	}
}

// TestInheritedIndexesBesideReaders: the sets and partitions a new root
// inherits are shared between two frozen bases, so readers of the old root —
// and of a delta head over it — keep scanning and probing while new roots are
// derived from both and read. Every reader must see the old contents
// throughout, every new root must answer like a rebuild. Run under -race.
func TestInheritedIndexesBesideReaders(t *testing.T) {
	root := employees(96)
	pairs := map[[2]string]bool{}
	for _, m := range []string{"isa", "sal", "rate", "exists"} {
		pairs[[2]string{"", m}] = true
		root.Index().VIDsWithResult("", m, term.Sym("empl"))
	}
	head := root.Derive([]objectbase.Change{withSal(root, "e1", 5), {V: obj("e2"), Old: root.StateOf(obj("e2"))}})
	if head.Parent() != root {
		t.Fatal("two changes of 96 versions did not leave a delta layer")
	}
	head.Index().VIDsWithResult("", "sal", term.Int(5))
	rootFlat, headFlat := root.Clone().Freeze(), head.Clone().Freeze()

	rng := rand.New(rand.NewSource(5))
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 6; round++ {
				if err := obtest.SameAnswers(root, rootFlat); err != nil {
					t.Errorf("reader of the old root: %v", err)
					return
				}
				if err := obtest.SameAnswers(head, headFlat); err != nil {
					t.Errorf("reader of the old head: %v", err)
					return
				}
			}
		}()
	}
	drawn := map[string]int{}
	for round := 0; round < 12; round++ {
		from := []*objectbase.Base{root, head}[round%2]
		changes := randomChanges(rng, from, 8+rng.Intn(24), round, drawn)
		next := from.Derive(changes)
		if next.Parent() != nil || next.VIDIndexDeferred() {
			t.Fatalf("round %d: depth %d, VID index deferred: %v; want a new root born with its index", round, next.Depth(), next.VIDIndexDeferred())
		}
		if err := obtest.CheckDerived(from, next, changes); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		// A second generation inherits from the first while it is read.
		more := randomChanges(rng, next, 8+rng.Intn(24), 100+round, drawn)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := obtest.SameAnswers(next, next.Clone().Freeze()); err != nil {
				t.Errorf("round %d, reader of the new root: %v", round, err)
			}
		}()
		second := next.Derive(more)
		if err := obtest.CheckDerived(next, second, more); err != nil {
			t.Fatalf("round %d, second generation: %v", round, err)
		}
	}
	wg.Wait()
}
