package objectbase_test

import (
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestPartitionsOnDemandGuard: a head's literal index holds the partitions
// its readers named and no other. After the two-rule bulk raise and both
// query shapes of the end-to-end workloads that is isa, pos and boss; sal —
// one entry per distinct salary, the most expensive partition, which an
// eager index builds for every new root — is never built, and a point lookup
// or a point update builds nothing at all.
func TestPartitionsOnDemandGuard(t *testing.T) {
	head := workload.EnterpriseSpec{Employees: 300, Seed: 21}.ObjectBase().Freeze()
	run := func(program string) {
		t.Helper()
		p, err := parser.Program(program, "guard.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eval.Run(head, p, eval.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	query := func(text string) {
		t.Helper()
		body, err := parser.Query(text, "guard.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := eval.Query(head, body); err != nil {
			t.Fatal(err)
		}
	}
	built := func(want ...string) {
		t.Helper()
		if got := head.Index().Partitions(); !reflect.DeepEqual(got, want) {
			t.Errorf("the head's index holds the partitions %v, want %v", got, want)
		}
	}
	run(`r: mod[e7].sal -> (S, S') <- e7.sal -> S, S' = S + 1.`)
	query(`e7.sal -> S.`)
	built()
	query(`E.boss -> e7, E.sal -> S.`)
	built("boss")
	run(workload.BulkRaiseProgram)
	built("boss", "isa", "pos")
}

// raceMethods are the eight (path 0) partitions the readers of
// TestConcurrentIndexSharing probe; rate carries its key as first argument.
var raceMethods = []string{"isa", "dept", "sal", "boss", "grade", "site", "team", "rate"}

// raceRoot builds the 400 employees of TestConcurrentIndexSharing. The copy
// that is frozen has its VID index deferred, so the first of the racing
// readers builds that too.
func raceRoot() *objectbase.Base {
	b := objectbase.New()
	for i := 0; i < 400; i++ {
		v := obj(fmt.Sprintf("e%d", i))
		b.EnsureObject(v.Object)
		b.Insert(term.NewFact(v, "isa", term.Sym("emp")))
		b.Insert(term.NewFact(v, "dept", term.Sym(fmt.Sprintf("d%d", i%7))))
		b.Insert(term.NewFact(v, "sal", term.Int(int64(1000+i))))
		b.Insert(term.NewFact(v, "boss", term.Sym(fmt.Sprintf("e%d", i%20))))
		b.Insert(term.NewFact(v, "grade", term.Int(int64(i%5))))
		b.Insert(term.NewFact(v, "site", term.Sym(fmt.Sprintf("s%d", i%3))))
		b.Insert(term.NewFact(v, "team", term.Sym(fmt.Sprintf("t%d", i%11))))
		b.Insert(term.Fact{V: v, Method: "rate", Args: term.EncodeOIDs([]term.OID{term.Int(int64(i % 4))}), Result: term.Int(int64(i))})
	}
	return b.Clone().Freeze()
}

// liveSet materializes the VIDs a probe answer yields; a VID yielded twice
// is an error.
func liveSet(t *testing.T, h objectbase.Hits) map[term.GVID]bool {
	out := map[term.GVID]bool{}
	for i := 0; i < h.Len(); i++ {
		if v, ok := h.At(i); ok {
			if out[v] {
				t.Errorf("probe yields %s twice", v)
			}
			out[v] = true
		}
	}
	return out
}

// TestConcurrentIndexSharing hammers the read-side structures that
// concurrent readers and appliers share on one frozen head and on a delta
// head over it: the lazily created literal index (Base.Index double-checks
// an atomic), its partitions (each built by the first probe that names it,
// under the index's own lock, and published by copy), the root's deferred
// VID index behind VIDsWith (the first of the racing readers builds
// it, under idxMu — which a partition build never asks for) and plain state
// reads. Eight readers each start on a
// different partition and then visit the others while evaluations run on the
// same two heads. Every probe must answer like the eager BuildIndex of a
// flat copy, and every reader must have seen the same one build of each
// partition. Run under -race this pins the invariant that freezing a base
// makes every reader path safe without external locking.
func TestConcurrentIndexSharing(t *testing.T) {
	root := raceRoot()
	gone := obj("e1")
	moved := withSal(root, "e0", 99)
	hired := objectbase.Change{V: obj("e400"), New: root.StateOf(obj("e2")).CloneFinal(term.Sym("e400"))}
	head := root.Derive([]objectbase.Change{moved, {V: gone, Old: root.StateOf(gone)}, hired})
	if head.Parent() != root {
		t.Fatal("three changes of 400 versions did not leave a delta layer")
	}
	p, err := parser.Program(`
		raise: mod[X].sal -> (S, S2) <- X.isa -> emp, X.sal -> S, S2 = S + 1.
		peers: ins[mod(X)].peer -> Y <- X.boss -> e7, Y.boss -> e7, X.grade -> G, Y.grade -> G.`, "race.vlg")
	if err != nil {
		t.Fatal(err)
	}

	type probed struct {
		base   *objectbase.Base
		oracle *objectbase.LiteralIndex
		facts  []term.Fact
	}
	var bases []probed
	for _, b := range []*objectbase.Base{root, head} {
		flat := b.Clone()
		pb := probed{base: b, oracle: objectbase.BuildIndex(flat)}
		for i := 0; i <= 400; i += 10 { // a sample that includes the changed and the created version
			pb.facts = slices.AppendSeq(pb.facts, flat.FactsOf(obj(fmt.Sprintf("e%d", i))))
		}
		bases = append(bases, pb)
	}

	var mu sync.Mutex
	builds := map[string]map[any]bool{} // per base and partition, the identities seen
	var wg sync.WaitGroup
	for g := 0; g < len(raceMethods); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < len(raceMethods); round++ {
				method := raceMethods[(g+round)%len(raceMethods)]
				for bi, pb := range bases {
					idx := pb.base.Index()
					for _, f := range pb.facts {
						if f.Method != method || f.V.Path != "" {
							continue
						}
						got, want := idx.VIDsWithResult("", method, f.Result), pb.oracle.VIDsWithResult("", method, f.Result)
						if a0, ok := f.Args.First(); ok {
							got, want = idx.VIDsWithArg("", method, a0), pb.oracle.VIDsWithArg("", method, a0)
						}
						if g, w := liveSet(t, got), liveSet(t, want); len(g) != len(w) || !g[f.V] || (pb.base == head && g[gone]) {
							t.Errorf("base %d, %s: probe for %s answers %d versions, the eager index %d", bi, method, f, len(g), len(w))
							return
						}
					}
					id := idx.BuiltPartition("", method)
					mu.Lock()
					key := fmt.Sprintf("%d/%s", bi, method)
					if builds[key] == nil {
						builds[key] = map[any]bool{}
					}
					builds[key][id] = true
					mu.Unlock()
				}
				if seen := len(slices.Collect(head.VIDsWith("", "sal"))); seen != 400 {
					t.Errorf("VIDsWith sal on the head: got %d vids, want 400", seen)
					return
				}
			}
		}(g)
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				b := bases[(w+round)%2].base
				res, err := eval.Run(b, p, eval.Options{})
				if err != nil {
					t.Errorf("Run: %v", err)
					return
				}
				if res.Final.Size() <= b.Size() {
					t.Errorf("Run added no peer facts")
				}
			}
		}(w)
	}
	wg.Wait()

	for key, ids := range builds {
		if len(ids) != 1 || ids[nil] {
			t.Errorf("partition %s: readers saw %d builds (unbuilt: %v), want exactly one", key, len(ids), ids[nil])
		}
	}
	if len(builds) != 2*len(raceMethods) {
		t.Errorf("readers reported %d partitions, want %d", len(builds), 2*len(raceMethods))
	}
	// Every goroutine must have observed the one cached index.
	if root.Index() != root.Index() || head.Index() != head.Index() {
		t.Errorf("a frozen base made a second index")
	}
}
