// Package repl implements the interactive verlog session behind
// "verlog repl": an in-memory object base, incremental rule entry, and
// immediate queries.
//
// Input forms:
//
//	x.m -> a.                     add a ground fact to the base
//	? E.sal -> S, S > 100.        query the base (all versions visible)
//	mod[E].sal -> (S,S') <- ...   stage an update-rule
//	.apply                        run the staged program on the base
//	.rules / .clear               show / drop staged rules
//	.show                         print the base
//	.strata                       stratification of the staged program
//	.history OBJ                  version history from the last .apply
//	.load FILE / .save FILE       load / save the base (text format)
//	.run FILE                     apply a program file
//	.help / .quit
//
// Statements may span lines; they end with a period. After .apply the base
// becomes the updated object base ob' and the fixpoint with all versions
// remains available to ? queries and .history until the next change.
package repl

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strings"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/safety"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Session is one interactive session.
type Session struct {
	base    *objectbase.Base
	staged  []term.Rule
	last    *eval.Result
	out     io.Writer
	prompt  bool
	buffer  string
	scanner *bufio.Scanner
}

// New returns a session over an empty base, writing to out.
func New(out io.Writer) *Session {
	return &Session{base: objectbase.New(), out: out}
}

// SetBase replaces the session's object base.
func (s *Session) SetBase(b *objectbase.Base) { s.base = b }

// Run drives the session from r until EOF or .quit. When interactive is
// set, a prompt is printed before every statement.
func (s *Session) Run(r io.Reader, interactive bool) error {
	s.prompt = interactive
	s.scanner = bufio.NewScanner(r)
	s.scanner.Buffer(make([]byte, 0, 1<<16), 1<<22)
	for {
		stmt, ok := s.readStatement()
		if !ok {
			return s.scanner.Err()
		}
		if stmt == "" {
			continue
		}
		quit, err := s.Execute(stmt)
		if err != nil {
			fmt.Fprintln(s.out, "error:", err)
		}
		if quit {
			return nil
		}
	}
}

// readStatement accumulates lines until a statement is complete: a dot
// command, or text ending in a period.
func (s *Session) readStatement() (string, bool) {
	s.buffer = ""
	for {
		if s.prompt {
			if s.buffer == "" {
				fmt.Fprint(s.out, "verlog> ")
			} else {
				fmt.Fprint(s.out, "   ...> ")
			}
		}
		if !s.scanner.Scan() {
			return strings.TrimSpace(s.buffer), strings.TrimSpace(s.buffer) != ""
		}
		line := s.scanner.Text()
		trimmed := strings.TrimSpace(line)
		if s.buffer == "" {
			if trimmed == "" || strings.HasPrefix(trimmed, "%") || strings.HasPrefix(trimmed, "#") {
				continue
			}
			if strings.HasPrefix(trimmed, ".") {
				return trimmed, true
			}
		}
		s.buffer += line + "\n"
		if strings.HasSuffix(trimmed, ".") {
			return strings.TrimSpace(s.buffer), true
		}
	}
}

// Execute runs one statement. It reports whether the session should end.
func (s *Session) Execute(stmt string) (quit bool, err error) {
	switch {
	case stmt == ".quit" || stmt == ".exit":
		return true, nil
	case stmt == ".help":
		s.printHelp()
		return false, nil
	case stmt == ".show":
		fmt.Fprint(s.out, parser.FormatFacts(s.base, false))
		return false, nil
	case stmt == ".rules":
		p := &term.Program{Rules: s.staged}
		fmt.Fprint(s.out, parser.FormatProgram(p))
		return false, nil
	case stmt == ".clear":
		s.staged = nil
		fmt.Fprintln(s.out, "staged rules dropped")
		return false, nil
	case stmt == ".apply":
		return false, s.apply()
	case stmt == ".strata":
		return false, s.showStrata()
	case strings.HasPrefix(stmt, ".history"):
		return false, s.history(strings.TrimSpace(strings.TrimPrefix(stmt, ".history")))
	case strings.HasPrefix(stmt, ".explain "):
		return false, s.explain(strings.TrimSpace(strings.TrimPrefix(stmt, ".explain")))
	case strings.HasPrefix(stmt, ".load "):
		return false, s.load(strings.TrimSpace(strings.TrimPrefix(stmt, ".load")))
	case strings.HasPrefix(stmt, ".save "):
		return false, s.save(strings.TrimSpace(strings.TrimPrefix(stmt, ".save")))
	case strings.HasPrefix(stmt, ".run "):
		return false, s.runFile(strings.TrimSpace(strings.TrimPrefix(stmt, ".run")))
	case strings.HasPrefix(stmt, "."):
		return false, fmt.Errorf("unknown command %q (try .help)", stmt)
	case strings.HasPrefix(stmt, "??"):
		return false, s.query(strings.TrimSpace(strings.TrimPrefix(stmt, "??")), true)
	case strings.HasPrefix(stmt, "?"):
		return false, s.query(strings.TrimSpace(strings.TrimPrefix(stmt, "?")), false)
	default:
		return false, s.addInput(stmt)
	}
}

func (s *Session) printHelp() {
	fmt.Fprint(s.out, `statements end with a period; commands start with a dot:
  x.m -> a.             add a ground fact
  ? E.sal -> S.         query the current base
  ?? mod(E).sal -> S.   query the last .apply's fixpoint (all versions)
  ins[X].m -> a <- ...  stage an update-rule
  .apply .rules .clear  run / show / drop staged rules
  .show                 print the object base
  .strata               stratification of the staged rules
  .history OBJ          version history from the last .apply
  .explain FACT.        provenance of a fixpoint fact (after .apply)
  .load F  .save F      load / save the base
  .run F                apply a program file
  .help  .quit
`)
}

// addInput parses the statement as facts first, then as rules.
func (s *Session) addInput(stmt string) error {
	if facts, err := parser.Facts(stmt, "repl"); err == nil {
		if s.base.Frozen() {
			// The base an apply leaves behind is frozen and shares states
			// with its input; edit a private copy.
			s.base = s.base.Clone()
		}
		for _, f := range facts {
			s.base.Insert(f)
			if f.V.IsObject() {
				s.base.EnsureObject(f.V.Object)
			}
		}
		s.last = nil
		fmt.Fprintf(s.out, "added %d fact(s)\n", len(facts))
		return nil
	}
	p, err := parser.Program(stmt, "repl")
	if err != nil {
		return err
	}
	s.staged = append(s.staged, p.Rules...)
	fmt.Fprintf(s.out, "staged %d rule(s), %d total (.apply to run)\n", len(p.Rules), len(s.staged))
	return nil
}

func (s *Session) apply() error {
	if len(s.staged) == 0 {
		return fmt.Errorf("no staged rules (enter rules first)")
	}
	p := &term.Program{Rules: s.staged}
	res, err := core.New(core.WithTrace()).Apply(s.base, p)
	if err != nil {
		return err
	}
	s.base = res.Final
	s.last = res
	s.staged = nil
	fmt.Fprintf(s.out, "applied: %d updates fired in %d strata; base has %d facts\n",
		res.Fired, res.Assignment.NumStrata(), res.Final.Size())
	return nil
}

func (s *Session) showStrata() error {
	if len(s.staged) == 0 {
		return fmt.Errorf("no staged rules")
	}
	p := &term.Program{Rules: s.staged}
	if err := safety.Program(p); err != nil {
		return err
	}
	a, err := strata.Stratify(p)
	if err != nil {
		return err
	}
	fmt.Fprintln(s.out, a.Format(p.RuleLabels()))
	return nil
}

// query evaluates against the current base, or — for ?? — against the
// fixpoint of the last .apply, where every intermediate version remains
// visible.
func (s *Session) query(q string, versions bool) error {
	lits, err := parser.Query(q, "query")
	if err != nil {
		return err
	}
	target := s.base
	if versions {
		if s.last == nil {
			return fmt.Errorf("?? needs a previous .apply (its fixpoint holds the versions)")
		}
		target = s.last.Result
	}
	bindings, err := eval.Query(target, lits)
	if err != nil {
		return err
	}
	for _, b := range bindings {
		if len(b) == 0 {
			fmt.Fprintln(s.out, "true")
			continue
		}
		fmt.Fprintln(s.out, b)
	}
	fmt.Fprintf(s.out, "%d answer(s)\n", len(bindings))
	return nil
}

func (s *Session) history(object string) error {
	if object == "" {
		return fmt.Errorf("usage: .history OBJECT")
	}
	if s.last == nil {
		return fmt.Errorf("no update has been applied yet")
	}
	steps := eval.History(s.last.Result, term.Sym(object))
	if len(steps) == 0 {
		fmt.Fprintf(s.out, "no versions of %s\n", object)
		return nil
	}
	for _, st := range steps {
		fmt.Fprintln(s.out, " ", st)
	}
	return nil
}

func (s *Session) explain(factSrc string) error {
	if s.last == nil {
		return fmt.Errorf("no update has been applied yet")
	}
	facts, err := parser.Facts(factSrc, "explain")
	if err != nil {
		return err
	}
	for _, f := range facts {
		fmt.Fprintln(s.out, s.last.Explain(f))
	}
	return nil
}

func (s *Session) load(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	b, err := parser.ObjectBase(string(src), path)
	if err != nil {
		return err
	}
	s.base = b
	s.last = nil
	fmt.Fprintf(s.out, "loaded %s (%d facts)\n", path, b.Size())
	return nil
}

func (s *Session) save(path string) error {
	if err := os.WriteFile(path, []byte(parser.FormatFacts(s.base, false)), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(s.out, "saved %s\n", path)
	return nil
}

func (s *Session) runFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	p, err := parser.Program(string(src), path)
	if err != nil {
		return err
	}
	res, err := core.New(core.WithTrace()).Apply(s.base, p)
	if err != nil {
		return err
	}
	s.base = res.Final
	s.last = res
	fmt.Fprintf(s.out, "applied %s: %d updates fired; base has %d facts\n",
		path, res.Fired, res.Final.Size())
	return nil
}
