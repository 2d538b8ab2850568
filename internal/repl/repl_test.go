package repl

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// drive runs a scripted session and returns the transcript.
func drive(t *testing.T, script string) string {
	t.Helper()
	var out strings.Builder
	s := New(&out)
	if err := s.Run(strings.NewReader(script), false); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return out.String()
}

func TestReplFactsAndQuery(t *testing.T) {
	out := drive(t, `
henry.isa -> empl / sal -> 250.
? E.sal -> S.
`)
	if !strings.Contains(out, "added 2 fact(s)") {
		t.Errorf("facts not added:\n%s", out)
	}
	if !strings.Contains(out, "E=henry, S=250") || !strings.Contains(out, "1 answer(s)") {
		t.Errorf("query failed:\n%s", out)
	}
}

func TestReplStageAndApply(t *testing.T) {
	out := drive(t, `
henry.isa -> empl / sal -> 250.
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S,
       S' = S * 1.1.
.rules
.strata
.apply
? E.sal -> S.
.history henry
.show
`)
	for _, want := range []string{
		"staged 1 rule(s)",
		"raise: mod[E].sal -> (S, S')", // .rules output
		"{raise}",                      // .strata output
		"applied: 1 updates fired",
		"E=henry, S=275",
		"mod(henry): -sal->250 +sal->275", // history
		"henry.sal -> 275.",               // .show
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestReplMultilineStatement(t *testing.T) {
	out := drive(t, `
x.m
  -> 1.
? x.m -> V.
`)
	if !strings.Contains(out, "V=1") {
		t.Errorf("multiline fact lost:\n%s", out)
	}
}

func TestReplErrorsDoNotAbort(t *testing.T) {
	out := drive(t, `
this is not valid syntax.
x.m -> 1.
.bogus
? x.m -> V.
.apply
`)
	if !strings.Contains(out, "error:") {
		t.Errorf("no error reported:\n%s", out)
	}
	if !strings.Contains(out, "V=1") {
		t.Errorf("session did not continue after error:\n%s", out)
	}
	if !strings.Contains(out, "no staged rules") {
		t.Errorf("empty .apply not reported:\n%s", out)
	}
}

func TestReplQuit(t *testing.T) {
	out := drive(t, `
x.m -> 1.
.quit
? x.m -> V.
`)
	if strings.Contains(out, "V=1") {
		t.Errorf(".quit did not stop the session:\n%s", out)
	}
}

func TestReplLoadSaveRun(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.vlg")
	progPath := filepath.Join(dir, "prog.vlg")
	savePath := filepath.Join(dir, "out.vlg")
	os.WriteFile(basePath, []byte("a.n -> 1.\n"), 0o644)
	os.WriteFile(progPath, []byte("r: mod[X].n -> (N, N') <- X.n -> N, N' = N + 1.\n"), 0o644)

	out := drive(t, `
.load `+basePath+`
.run `+progPath+`
.save `+savePath+`
? a.n -> N.
`)
	if !strings.Contains(out, "loaded") || !strings.Contains(out, "applied") {
		t.Fatalf("transcript:\n%s", out)
	}
	if !strings.Contains(out, "N=2") {
		t.Errorf("update not applied:\n%s", out)
	}
	saved, err := os.ReadFile(savePath)
	if err != nil || !strings.Contains(string(saved), "a.n -> 2.") {
		t.Errorf("saved base: %s (%v)", saved, err)
	}
}

func TestReplClear(t *testing.T) {
	out := drive(t, `
r: ins[X].m -> a <- X.t -> 1.
.clear
.apply
`)
	if !strings.Contains(out, "staged rules dropped") || !strings.Contains(out, "no staged rules") {
		t.Errorf("clear broken:\n%s", out)
	}
}

func TestReplHelp(t *testing.T) {
	out := drive(t, ".help\n")
	if !strings.Contains(out, ".apply") || !strings.Contains(out, ".history") {
		t.Errorf("help output:\n%s", out)
	}
}

func TestReplVersionQueriesAfterApply(t *testing.T) {
	out := drive(t, `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
.apply
?? any(bob).sal -> S.
`)
	// Version wildcard over the retained fixpoint: both salaries visible.
	if !strings.Contains(out, "S=4200") || !strings.Contains(out, "S=4620") {
		t.Errorf("version query after apply:\n%s", out)
	}
}

func TestReplExplain(t *testing.T) {
	out := drive(t, `
henry.isa -> empl / sal -> 250.
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1.
.apply
.explain mod(henry).sal -> 275.
.explain mod(henry).isa -> empl.
`)
	if !strings.Contains(out, "produced by mod[henry].sal -> (250, 275) (rule raise, stratum 1)") {
		t.Errorf("update provenance missing:\n%s", out)
	}
	if !strings.Contains(out, "inherited from henry") {
		t.Errorf("copy provenance missing:\n%s", out)
	}
}

func TestReplExplainBeforeApply(t *testing.T) {
	out := drive(t, `.explain x.m -> 1.`+"\n")
	if !strings.Contains(out, "no update has been applied yet") {
		t.Errorf("missing guard:\n%s", out)
	}
}

// TestReplFactsAfterApply: the base an apply leaves behind is frozen; adding
// facts afterwards must edit a copy, not panic.
func TestReplFactsAfterApply(t *testing.T) {
	out := drive(t, `
henry.isa -> empl / sal -> 250.
raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.
.apply
bob.isa -> empl / sal -> 100.
? E.sal -> S.
`)
	for _, want := range []string{"applied: 1 updates fired", "E=bob, S=100", "E=henry, S=251", "2 answer(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}
