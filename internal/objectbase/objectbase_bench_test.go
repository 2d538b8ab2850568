package objectbase

import (
	"fmt"
	"testing"

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
