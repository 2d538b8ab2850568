package repository

import (
	"errors"
	"testing"

	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/term"
)

// The crash sweep: run an init + apply + compact + apply workload once per
// fault point of the fault-injection filesystem, simulating power loss at
// every durable operation in turn (with and without torn writes), reopen
// the directory, and assert that the repository always recovers to a
// state that (a) passes Verify and (b) equals the result of some prefix
// of the applies that covers at least every acknowledged one.

const crashBase = `henry.isa -> empl / sal -> 100.`

// crashPrograms returns the workload's programs: five +10 raises, each
// producing a distinct head state.
func crashPrograms(t *testing.T) []*term.Program {
	t.Helper()
	var ps []*term.Program
	for i := 0; i < 5; i++ {
		ps = append(ps, prog(t, `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 10.`))
	}
	return ps
}

// compactAfter is the apply index before which the workload compacts.
const compactAfter = 3

// runCrashWorkload runs the workload on fs rooted at dir: init, three
// applies, a compact, two more applies. It returns how many applies were
// acknowledged (returned nil) and the first error.
func runCrashWorkload(t *testing.T, dir string, fs fsio.FS, progs []*term.Program) (acked int, err error) {
	t.Helper()
	initial, perr := parser.ObjectBase(crashBase, "init.vlg")
	if perr != nil {
		t.Fatalf("parse: %v", perr)
	}
	r, err := InitFS(dir, initial, fs)
	if err != nil {
		return 0, err
	}
	for i, p := range progs {
		if i == compactAfter {
			if err := r.Compact(); err != nil {
				return acked, err
			}
		}
		if _, err := r.Apply(p); err != nil {
			return acked, err
		}
		acked++
	}
	return acked, nil
}

// expectedStates computes, fault-free, the head after each number of
// applies: states[k] is the base after k applies.
func expectedStates(t *testing.T, progs []*term.Program) []*objectbase.Base {
	t.Helper()
	dir := t.TempDir() + "/expected"
	if acked, err := runCrashWorkload(t, dir, fsio.OS, progs); err != nil || acked != len(progs) {
		t.Fatalf("fault-free workload: acked %d, %v", acked, err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	// The compact dropped states before it; rebuild all prefixes directly.
	initial, _ := parser.ObjectBase(crashBase, "init.vlg")
	states := []*objectbase.Base{initial}
	cur := initial
	entries := 0
	for k := 1; k <= len(progs); k++ {
		next, err := replayOne(t, cur, progs[k-1])
		if err != nil {
			t.Fatalf("replay %d: %v", k, err)
		}
		states = append(states, next)
		cur = next
		entries++
	}
	head, err := r.Head()
	if err != nil || !head.Equal(states[len(progs)]) {
		t.Fatalf("fault-free head does not match recomputed state: %v", err)
	}
	return states
}

func replayOne(t *testing.T, base *objectbase.Base, p *term.Program) (*objectbase.Base, error) {
	t.Helper()
	dir := t.TempDir() + "/replay"
	r, err := Init(dir, base)
	if err != nil {
		return nil, err
	}
	if _, err := r.Apply(p); err != nil {
		return nil, err
	}
	return r.Head()
}

func TestCrashSweep(t *testing.T) {
	progs := crashPrograms(t)
	states := expectedStates(t, progs)

	// Measure the number of fault points with a disarmed run.
	probe := fsio.NewFault()
	if acked, err := runCrashWorkload(t, t.TempDir()+"/probe", probe, progs); err != nil || acked != len(progs) {
		t.Fatalf("probe workload: acked %d, %v", acked, err)
	}
	total := probe.Count()
	if total < 20 {
		t.Fatalf("suspiciously few fault points: %d", total)
	}
	t.Logf("sweeping %d fault points x {clean, torn}", total)

	for _, tear := range []bool{false, true} {
		for i := 1; i <= total; i++ {
			dir := t.TempDir() + "/repo"
			f := fsio.NewFault()
			f.FailAt(i, tear)
			acked, werr := runCrashWorkload(t, dir, f, progs)
			if werr == nil {
				t.Fatalf("point %d tear=%v: workload survived an armed failpoint", i, tear)
			}
			if !errors.Is(werr, fsio.ErrInjected) {
				t.Fatalf("point %d tear=%v: workload failed with a real error: %v", i, tear, werr)
			}

			r, err := Open(dir)
			if err != nil {
				// Only a crash during Init may leave a directory that is
				// not a repository yet.
				if acked == 0 {
					continue
				}
				t.Fatalf("point %d tear=%v: Open after %d acked applies: %v", i, tear, acked, err)
			}
			if err := r.Verify(); err != nil {
				t.Fatalf("point %d tear=%v: Verify: %v (recovery: %s)", i, tear, err, r.Recovery())
			}
			head, err := r.Head()
			if err != nil {
				t.Fatalf("point %d tear=%v: Head: %v", i, tear, err)
			}
			k := -1
			for j, s := range states {
				if head.Equal(s) {
					k = j
					break
				}
			}
			if k < 0 {
				t.Fatalf("point %d tear=%v: recovered head matches no prefix of the workload (recovery: %s)", i, tear, r.Recovery())
			}
			if k < acked {
				t.Fatalf("point %d tear=%v: recovered to state %d but %d applies were acknowledged — durability violated (recovery: %s)",
					i, tear, k, acked, r.Recovery())
			}
		}
	}
}

// TestCrashSweepReopenIsIdempotent: recovering twice changes nothing —
// the second Open of a repaired directory is clean.
func TestCrashSweepReopenIsIdempotent(t *testing.T) {
	progs := crashPrograms(t)
	probe := fsio.NewFault()
	if _, err := runCrashWorkload(t, t.TempDir()+"/probe", probe, progs); err != nil {
		t.Fatalf("probe workload: %v", err)
	}
	// A fault point in the middle of the workload (inside some apply).
	dir := t.TempDir() + "/repo"
	f := fsio.NewFault()
	f.FailAt(probe.Count()/2, true)
	if _, err := runCrashWorkload(t, dir, f, progs); err == nil {
		t.Fatal("workload survived")
	}
	if _, err := Open(dir); err != nil {
		t.Fatalf("first Open: %v", err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("second Open: %v", err)
	}
	if rec := r.Recovery(); !rec.Clean() {
		t.Fatalf("second Open still repaired something: %s", rec)
	}
}
