package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	ferr := fn()
	w.Close()
	os.Stdout = old
	return <-done, ferr
}

func writeFile(t *testing.T, dir, name, content string) string {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatalf("write %s: %v", name, err)
	}
	return path
}

const (
	testBase = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`
	testProg = `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`
)

func TestCmdRunToFile(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	prog := writeFile(t, dir, "prog.vlg", testProg)
	out := filepath.Join(dir, "out.vlg")
	result := filepath.Join(dir, "result.vlg")
	if err := cmdRun([]string{"-ob", ob, "-prog", prog, "-o", out, "-result", result}); err != nil {
		t.Fatalf("cmdRun: %v", err)
	}
	final, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("read out: %v", err)
	}
	if !strings.Contains(string(final), "phil.sal -> 4600.") || strings.Contains(string(final), "bob") {
		t.Errorf("out.vlg:\n%s", final)
	}
	res, err := os.ReadFile(result)
	if err != nil {
		t.Fatalf("read result: %v", err)
	}
	if !strings.Contains(string(res), "mod(bob).sal -> 4620.") {
		t.Errorf("result.vlg misses versions:\n%s", res)
	}
}

func TestCmdRunMissingFlags(t *testing.T) {
	if err := cmdRun([]string{}); err == nil {
		t.Errorf("missing flags accepted")
	}
}

func TestCmdCheck(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "prog.vlg", testProg)
	out, err := capture(t, func() error { return cmdCheck([]string{"-prog", prog}) })
	if err != nil {
		t.Fatalf("cmdCheck: %v", err)
	}
	if !strings.Contains(out, "3 strata") || !strings.Contains(out, "{rule1, rule2}; {rule3}; {rule4}") {
		t.Errorf("check output: %s", out)
	}
	bad := writeFile(t, dir, "bad.vlg", `r: ins[X].m -> Y <- X.t -> 1.`)
	if err := cmdCheck([]string{"-prog", bad}); err == nil {
		t.Errorf("unsafe program passed check")
	}
}

func TestCmdStrataEdges(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "prog.vlg", testProg)
	out, err := capture(t, func() error { return cmdStrata([]string{"-prog", prog, "-edges"}) })
	if err != nil {
		t.Fatalf("cmdStrata: %v", err)
	}
	for _, want := range []string{"stratum 1: {rule1, rule2}", "stratum 3: {rule4}", "(a) rule1 <  rule3", "(c) rule3 <  rule4"} {
		if !strings.Contains(out, want) {
			t.Errorf("strata output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdQuery(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	out, err := capture(t, func() error {
		return cmdQuery([]string{"-ob", ob, `E.sal -> S, S > 4000.`})
	})
	if err != nil {
		t.Fatalf("cmdQuery: %v", err)
	}
	if !strings.Contains(out, "E=bob, S=4200") {
		t.Errorf("query output: %s", out)
	}
}

func TestCmdQueryDerived(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	rules := writeFile(t, dir, "rules.vlg", `
senior: E.rank -> senior <- E.isa -> empl, E.sal -> S, S > 4000.
`)
	out, err := capture(t, func() error {
		return cmdQuery([]string{"-ob", ob, "-derived", rules, `E.rank -> R.`})
	})
	if err != nil {
		t.Fatalf("cmdQuery -derived: %v", err)
	}
	if !strings.Contains(out, "E=bob, R=senior") {
		t.Errorf("derived query output: %s", out)
	}
}

func TestCmdDiff(t *testing.T) {
	dir := t.TempDir()
	a := writeFile(t, dir, "a.vlg", `x.m -> 1.`)
	b := writeFile(t, dir, "b.vlg", `x.m -> 2.`)
	out, err := capture(t, func() error { return cmdDiff([]string{"-from", a, "-to", b}) })
	if err != nil {
		t.Fatalf("cmdDiff: %v", err)
	}
	if !strings.Contains(out, "- x.m -> 1.") || !strings.Contains(out, "+ x.m -> 2.") {
		t.Errorf("diff output: %s", out)
	}
}

func TestCmdFmt(t *testing.T) {
	dir := t.TempDir()
	prog := writeFile(t, dir, "p.vlg", "r:ins[X].m->a<-X.t->1.")
	out, err := capture(t, func() error { return cmdFmt([]string{"-prog", prog}) })
	if err != nil {
		t.Fatalf("cmdFmt: %v", err)
	}
	if strings.TrimSpace(out) != "r: ins[X].m -> a <- X.t -> 1." {
		t.Errorf("fmt output: %q", out)
	}
	if err := cmdFmt([]string{}); err == nil {
		t.Errorf("fmt without flags accepted")
	}
}

func TestCmdRepoLifecycle(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", `henry.isa -> empl / sal -> 1000.`)
	prog := writeFile(t, dir, "raise.vlg", `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 2.`)
	repo := filepath.Join(dir, "repo")

	if _, err := capture(t, func() error {
		return cmdRepo([]string{"init", "-dir", repo, "-ob", ob})
	}); err != nil {
		t.Fatalf("repo init: %v", err)
	}
	if _, err := capture(t, func() error {
		return cmdRepo([]string{"apply", "-dir", repo, "-prog", prog})
	}); err != nil {
		t.Fatalf("repo apply: %v", err)
	}
	logOut, err := capture(t, func() error { return cmdRepo([]string{"log", "-dir", repo}) })
	if err != nil {
		t.Fatalf("repo log: %v", err)
	}
	if !strings.Contains(logOut, "state 1:") {
		t.Errorf("repo log: %s", logOut)
	}
	atOut, err := capture(t, func() error { return cmdRepo([]string{"at", "-dir", repo, "-state", "1"}) })
	if err != nil {
		t.Fatalf("repo at: %v", err)
	}
	if !strings.Contains(atOut, "henry.sal -> 2000.") {
		t.Errorf("repo at: %s", atOut)
	}
	if err := cmdRepo([]string{"at", "-dir", repo, "-state", "9"}); err == nil {
		t.Errorf("nonexistent state accepted")
	}
}

func TestCmdRepoConstrain(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", `henry.isa -> empl / sal -> 100.`)
	cons := writeFile(t, dir, "cons.vlg", `nonneg: E.isa -> empl, E.sal -> S, S < 0.`)
	cut := writeFile(t, dir, "cut.vlg", `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S - 500.`)
	repo := filepath.Join(dir, "repo")

	if _, err := capture(t, func() error { return cmdRepo([]string{"init", "-dir", repo, "-ob", ob}) }); err != nil {
		t.Fatalf("init: %v", err)
	}
	out, err := capture(t, func() error { return cmdRepo([]string{"constrain", "-dir", repo, "-file", cons}) })
	if err != nil {
		t.Fatalf("constrain: %v", err)
	}
	if !strings.Contains(out, "installed 1 constraint") {
		t.Errorf("constrain output: %s", out)
	}
	// The install is a state of its own, with no firing and no diff.
	logOut, err := capture(t, func() error { return cmdRepo([]string{"log", "-dir", repo}) })
	if want := "state 1: +0 -0 facts, 0 fired, 0 strata | constraints: nonneg: E.isa -> empl, E.sal -> S, S < 0.\n"; err != nil || logOut != want {
		t.Errorf("repo log = %q (%v), want %q", logOut, err, want)
	}
	if _, err := capture(t, func() error { return cmdRepo([]string{"apply", "-dir", repo, "-prog", cut}) }); err == nil {
		t.Errorf("violating apply accepted")
	}
}

func TestCmdConvertRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	bin := filepath.Join(dir, "ob.bin")
	back := filepath.Join(dir, "back.vlg")
	if err := cmdConvert([]string{"-in", ob, "-o", bin, "-to", "bin"}); err != nil {
		t.Fatalf("to bin: %v", err)
	}
	if err := cmdConvert([]string{"-in", bin, "-o", back, "-to", "text"}); err != nil {
		t.Fatalf("to text: %v", err)
	}
	data, err := os.ReadFile(back)
	if err != nil || !strings.Contains(string(data), "phil.sal -> 4000.") {
		t.Errorf("round trip: %s (%v)", data, err)
	}
	if err := cmdConvert([]string{"-in", ob, "-o", bin, "-to", "bogus"}); err == nil {
		t.Errorf("bad format accepted")
	}
}

func TestCmdStats(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	out, err := capture(t, func() error { return cmdStats([]string{"-ob", ob}) })
	if err != nil {
		t.Fatalf("cmdStats: %v", err)
	}
	if !strings.Contains(out, "2 objects") || !strings.Contains(out, "sal") {
		t.Errorf("stats output: %s", out)
	}
}

func TestCmdVetDeep(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	prog := writeFile(t, dir, "prog.vlg", testProg)

	// A clean program stays clean under -deep.
	out, err := capture(t, func() error {
		return cmdVet([]string{"-deep", "-ob", ob, prog})
	})
	if err != nil {
		t.Fatalf("vet -deep: %v\n%s", err, out)
	}

	// -deep -json emits per-file reports with the facts attached.
	out, err = capture(t, func() error {
		return cmdVet([]string{"-deep", "-json", "-ob", ob, prog})
	})
	if err != nil {
		t.Fatalf("vet -deep -json: %v", err)
	}
	for _, want := range []string{`"file"`, `"diagnostics"`, `"facts"`, `"est_rows"`, `"rule1"`} {
		if !strings.Contains(out, want) {
			t.Errorf("vet -deep -json misses %s:\n%s", want, out)
		}
	}

	// Plain -json keeps the flat diagnostics-array shape.
	out, err = capture(t, func() error {
		return cmdVet([]string{"-json", prog})
	})
	if err != nil {
		t.Fatalf("vet -json: %v", err)
	}
	if strings.Contains(out, `"facts"`) || !strings.HasPrefix(strings.TrimSpace(out), "[") {
		t.Errorf("vet -json shape changed:\n%s", out)
	}

	// A deep finding: sort clash between a string fact and an ordering.
	clash := writeFile(t, dir, "clash.vlg",
		"r: ins[E].flag -> yes <- E.name -> N, N > 10.\n")
	clashOb := writeFile(t, dir, "clash-ob.vlg", "e1.name -> \"ann\".\n")
	out, err = capture(t, func() error {
		return cmdVet([]string{"-deep", "-ob", clashOb, clash})
	})
	if err != nil {
		t.Fatalf("vet -deep on warning-only program must not fail: %v", err)
	}
	if !strings.Contains(out, "V0302") {
		t.Errorf("vet -deep misses the sort clash:\n%s", out)
	}
	// ... but -strict turns the warning into a failure.
	if _, err = capture(t, func() error {
		return cmdVet([]string{"-deep", "-strict", "-ob", clashOb, clash})
	}); err == nil {
		t.Errorf("vet -deep -strict accepted a warning")
	}
}

func TestCmdExplainPlan(t *testing.T) {
	dir := t.TempDir()
	ob := writeFile(t, dir, "ob.vlg", testBase)
	prog := writeFile(t, dir, "prog.vlg", testProg)

	out, err := capture(t, func() error {
		return cmdExplainPlan([]string{"-ob", ob, prog})
	})
	if err != nil {
		t.Fatalf("explain-plan: %v\n%s", err, out)
	}
	for _, want := range []string{"rule rule1", "rule rule4", "[stratum 1]", "cost ", "fanout ", "generator", "filter", "probe-result", "est 2", "(Δ 1)", "strata:"} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-plan misses %q:\n%s", want, out)
		}
	}

	// Without -ob the static planner is used and announced.
	out, err = capture(t, func() error {
		return cmdExplainPlan([]string{prog})
	})
	if err != nil {
		t.Fatalf("explain-plan static: %v", err)
	}
	if !strings.Contains(out, "static estimates") {
		t.Errorf("explain-plan static header missing:\n%s", out)
	}

	// -json emits the Facts structure.
	out, err = capture(t, func() error {
		return cmdExplainPlan([]string{"-json", "-ob", ob, prog})
	})
	if err != nil {
		t.Fatalf("explain-plan -json: %v", err)
	}
	for _, want := range []string{`"rules"`, `"literals"`, `"est_rows"`, `"base"`} {
		if !strings.Contains(out, want) {
			t.Errorf("explain-plan -json misses %s:\n%s", want, out)
		}
	}

	// A program with errors is refused.
	bad := writeFile(t, dir, "bad.vlg", "r: ins[X].t -> Y <- X.t -> w.\n")
	if _, err = capture(t, func() error {
		return cmdExplainPlan([]string{bad})
	}); err == nil {
		t.Errorf("explain-plan accepted an unsafe program")
	}
}
