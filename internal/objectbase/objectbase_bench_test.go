package objectbase

import (
	"fmt"
	"testing"
	"time"

	"verlog/internal/term"
)

func benchBase(n int) *Base {
	b := New()
	for i := 0; i < n; i++ {
		o := term.Sym(fmt.Sprintf("obj%d", i))
		v := term.GVID{Object: o}
		b.Insert(term.NewFact(v, "isa", term.Sym("item")))
		b.Insert(term.NewFact(v, "val", term.Int(int64(i))))
		b.Insert(term.NewFact(v, "tag", term.Sym("a")))
		b.EnsureObject(o)
	}
	return b
}

func BenchmarkBaseInsert(b *testing.B) {
	b.ReportAllocs()
	base := New()
	for i := 0; i < b.N; i++ {
		v := term.GVID{Object: term.Sym(fmt.Sprintf("o%d", i%4096))}
		base.Insert(term.NewFact(v, "val", term.Int(int64(i))))
	}
}

func BenchmarkBaseHas(b *testing.B) {
	base := benchBase(4096)
	f := term.NewFact(term.GVID{Object: term.Sym("obj1000")}, "val", term.Int(1000))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !base.Has(f) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkBaseVStar(b *testing.B) {
	base := benchBase(64)
	o := term.Sym("obj1")
	base.Insert(term.NewFact(term.GV(o, term.Mod), term.ExistsMethod, o))
	deep := term.GV(o, term.Mod, term.Del, term.Ins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := base.VStar(deep); !ok {
			b.Fatal("no v*")
		}
	}
}

func BenchmarkBaseClone(b *testing.B) {
	base := benchBase(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		base.Clone()
	}
}

func BenchmarkBaseForEachVIDWith(b *testing.B) {
	base := benchBase(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for range base.VIDsWith("", "val") {
			count++
		}
		if count != 4096 {
			b.Fatalf("count = %d", count)
		}
	}
}

func BenchmarkDiffCompute(b *testing.B) {
	from := benchBase(1024)
	to := from.Clone()
	for i := 0; i < 128; i++ {
		o := term.Sym(fmt.Sprintf("obj%d", i))
		to.Remove(term.NewFact(term.GVID{Object: o}, "val", term.Int(int64(i))))
		to.Insert(term.NewFact(term.GVID{Object: o}, "val", term.Int(int64(i+1))))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := Compute(from, to)
		if len(d.Added) != 128 {
			b.Fatalf("added = %d", len(d.Added))
		}
	}
}

// pmapSink keeps the maps BenchmarkE37DeltaLayer makes.
var pmapSink pmap

// BenchmarkE37DeltaLayer — E37: what a commit's path copy of the delta
// layer and a read through it cost. A root of 10 000 objects carries a
// delta layer of 625 rewritten ones, |base|/16, the most the flatten rule
// lets a layer hold. with enters one of 625 further versions into the layer
// (B/op and allocs/op are the path copy of a point commit onto it); rewrite
// rebinds a version the layer holds. get reads every layer version through
// the layer's trie and then through the root's version index, and reports
// the in-run ratio of the two times (delta-get-ratio) and the time of a
// delta get (delta-get-ns).
func BenchmarkE37DeltaLayer(b *testing.B) {
	const n = 10000
	root := benchBase(n).Freeze()
	var changes []Change
	var outside []term.GVID
	for i := 0; i < n; i++ {
		v := term.GVID{Object: term.Sym(fmt.Sprintf("obj%d", i))}
		if i%16 != 0 {
			if len(outside) < n/16 {
				outside = append(outside, v)
			}
			continue
		}
		s := root.StateOf(v).Clone()
		s.Add(term.MethodKey{Method: "val"}, term.Int(-1))
		changes = append(changes, Change{V: v, Old: root.StateOf(v), New: s})
	}
	layer := root.Derive(changes)
	if layer.Parent() != root || layer.delta.len() != n/16 {
		b.Fatalf("Derive of %d versions over %d built no delta layer of them", len(changes), n)
	}
	m, s := layer.delta, NewState()
	b.Run("with", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pmapSink = m.with(outside[i%len(outside)], s)
		}
	})
	b.Run("rewrite", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			pmapSink = m.with(changes[i%len(changes)].V, s)
		}
	})
	b.Run("get", func(b *testing.B) {
		start := time.Now()
		for i := 0; i < b.N; i++ {
			if _, ok := m.get(changes[i%len(changes)].V); !ok {
				b.Fatal("a layer version is missing from the layer")
			}
		}
		delta := time.Since(start)
		start = time.Now()
		for i := 0; i < b.N; i++ {
			if _, ok := root.own(changes[i%len(changes)].V); !ok {
				b.Fatal("a layer version is missing from the root")
			}
		}
		rootGet := time.Since(start)
		b.ReportMetric(float64(delta)/float64(rootGet), "delta-get-ratio")
		b.ReportMetric(float64(delta.Nanoseconds())/float64(b.N), "delta-get-ns")
	})
}
