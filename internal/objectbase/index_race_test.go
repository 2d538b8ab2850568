package objectbase

import (
	"fmt"
	"sync"
	"testing"

	"verlog/internal/term"
)

// TestConcurrentIndexSharing hammers the read-side structures that
// concurrent applies share on one frozen head: the lazily built literal
// index (Base.Index double-checks an atomic), the VID index behind
// ForEachVIDWith (deferred on a copy, so the first of the racing readers
// builds it) and plain state reads. Run under -race this pins the
// invariant that freezing a base makes every reader path safe without
// external locking.
func TestConcurrentIndexSharing(t *testing.T) {
	b := New()
	for i := 0; i < 400; i++ {
		obj := fmt.Sprintf("e%d", i)
		b.Insert(fact(obj, "", "sal", term.Int(int64(1000+i))))
		b.Insert(fact(obj, "", "dept", term.Sym(fmt.Sprintf("d%d", i%7))))
		b.Insert(fact(obj, "", "isa", term.Sym("emp")))
	}
	frozen := b.Clone().Freeze()

	const goroutines = 8
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				idx := frozen.Index()
				if n := len(liveHits(idx.VIDsWithResult("", "isa", term.Sym("emp")))); n != 400 {
					t.Errorf("isa probe: got %d vids, want 400", n)
					return
				}
				d := term.Sym(fmt.Sprintf("d%d", (g+round)%7))
				for _, v := range liveHits(idx.VIDsWithResult("", "dept", d)) {
					if frozen.StateOf(v) == nil {
						t.Errorf("indexed vid %s has no state", v)
						return
					}
				}
				seen := 0
				frozen.ForEachVIDWith("", "sal", func(v term.GVID) { seen++ })
				if seen != 400 {
					t.Errorf("ForEachVIDWith sal: got %d vids, want 400", seen)
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Every goroutine must have observed the one cached index build.
	if frozen.Index() != frozen.Index() {
		t.Errorf("frozen base rebuilt its index across calls")
	}
}

// liveHits materializes the VIDs a probe answer yields.
func liveHits(h Hits) []term.GVID {
	var out []term.GVID
	for i := 0; i < h.Len(); i++ {
		if v, ok := h.At(i); ok {
			out = append(out, v)
		}
	}
	return out
}
