package objectbase

import (
	"fmt"
	"math/rand"
	"testing"

	"verlog/internal/term"
)

// TestPmapAgainstMap drives a persistent map and a Go map through the same
// random edits, under the real hash and under hashes degenerate enough to
// force deep splits and full-hash collision buckets, and checks after every
// edit that they agree and that no earlier version of the map changed.
func TestPmapAgainstMap(t *testing.T) {
	hashes := map[string]func(term.GVID) uint64{
		"real":      hashGVID,
		"two-bit":   func(v term.GVID) uint64 { return uint64(len(v.Object.String())+len(v.Path)) % 4 },
		"high-bits": func(v term.GVID) uint64 { return uint64(len(v.Object.String())%3) << 61 },
		"constant":  func(term.GVID) uint64 { return 42 },
	}
	saved := hashGVID
	defer func() { hashGVID = saved }()
	for name, h := range hashes {
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
				if step%50 == 0 {
					cp := make(map[term.GVID]*State, len(ref))
					for k, v := range ref {
						cp[k] = v
					}
					snaps = append(snaps, snap{m, cp})
				}
				checkPmap(t, fmt.Sprintf("step %d", step), m, ref)
			}
			for i, s := range snaps {
				checkPmap(t, fmt.Sprintf("snapshot %d", i), s.m, s.ref)
			}
		})
	}
}

func checkPmap(t *testing.T, what string, m pmap, ref map[term.GVID]*State) {
	t.Helper()
	if m.len() != len(ref) {
		t.Fatalf("%s: len %d, want %d", what, m.len(), len(ref))
	}
	for k, v := range ref {
		if got, ok := m.get(k); !ok || got != v {
			t.Fatalf("%s: get(%s) = %p, %v; want %p", what, k, got, ok, v)
		}
	}
	if _, ok := m.get(term.GVID{Object: term.Sym("absent")}); ok {
		t.Fatalf("%s: found a key never inserted", what)
	}
	seen := 0
	m.each(func(k term.GVID, v *State) {
		seen++
		if ref[k] != v {
			t.Fatalf("%s: each yields %s -> %p, want %p", what, k, v, ref[k])
		}
	})
	if seen != len(ref) {
		t.Fatalf("%s: each yields %d entries, want %d", what, seen, len(ref))
	}
}
