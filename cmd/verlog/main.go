// Command verlog is the command-line interface to the verlog engine: it
// checks and runs update-programs against object bases, queries bases,
// diffs them, formats sources, and manages journaled repositories.
//
// Usage:
//
//	verlog run    -ob BASE -prog PROG [-o OUT] [-result OUT] [-trace]
//	verlog trace  [-ob BASE] [-json] [-chrome FILE] [-top N] PROG
//	verlog check  -prog PROG
//	verlog vet    [-json] [-ob BASE] [-max-depth N] FILES...
//	verlog strata -prog PROG
//	verlog query  -ob BASE 'QUERY'
//	verlog diff   -from BASE1 -to BASE2
//	verlog fmt    (-prog PROG | -ob BASE)
//	verlog repo   init  -dir DIR -ob BASE
//	verlog repo   apply -dir DIR -prog PROG
//	verlog repo   log   -dir DIR
//	verlog repo   at    -dir DIR -state N
//	verlog repo   constrain -dir DIR -file CONSTRAINTS
//	verlog repl   [-ob BASE]
//	verlog status -endpoints URL1,URL2,...
//	verlog top    -endpoint URL [-interval 2s] [-n N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"verlog/internal/analysis"
	"verlog/internal/core"
	"verlog/internal/derived"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/repl"
	"verlog/internal/repository"
	"verlog/internal/safety"
	"verlog/internal/schema"
	"verlog/internal/storage"
	"verlog/internal/strata"
	"verlog/internal/term"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(os.Args[2:])
	case "trace":
		err = cmdTrace(os.Args[2:])
	case "check":
		err = cmdCheck(os.Args[2:])
	case "vet":
		err = cmdVet(os.Args[2:])
	case "strata":
		err = cmdStrata(os.Args[2:])
	case "query":
		err = cmdQuery(os.Args[2:])
	case "diff":
		err = cmdDiff(os.Args[2:])
	case "fmt":
		err = cmdFmt(os.Args[2:])
	case "repo":
		err = cmdRepo(os.Args[2:])
	case "repl":
		err = cmdRepl(os.Args[2:])
	case "schema":
		err = cmdSchema(os.Args[2:])
	case "stats":
		err = cmdStats(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "explain-plan":
		err = cmdExplainPlan(os.Args[2:])
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "status":
		err = cmdStatus(os.Args[2:])
	case "top":
		err = cmdTop(os.Args[2:])
	case "help", "-h", "--help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "verlog: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "verlog:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `verlog — a rule-based update language for objects (VLDB 1992)

commands:
  run     apply an update-program to an object base
  trace   run a program and print its evaluation span tree + rule hot list
  check   check a program (safety + stratifiability)
  vet     static analysis with positioned, coded diagnostics
  strata  print a program's stratification and constraints
  query   evaluate a query against an object base
  diff    compare two object bases
  fmt     reformat a program or object base canonically
  repo    manage a journaled object-base repository
  repl    interactive session (facts, staged rules, queries)
  schema  check an object base against class signatures
  stats   summarize an object base (facts, versions, methods)
  plan    show the join order the planner picks per rule
  explain-plan  per-rule cost tables from the deep analysis tier
  convert convert an object base between text and binary snapshots
  status  one-line-per-node fleet table from each server's /v1/status
  top     live console over one server: rates, hot rules, slow requests

run 'verlog <command> -h' for flags.
`)
}

func loadBase(path string) (*objectbase.Base, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.ObjectBase(string(src), path)
}

func loadProgram(path string) (*term.Program, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parser.Program(string(src), path)
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (required)")
	progPath := fs.String("prog", "", "update-program file (required)")
	outPath := fs.String("o", "", "write the updated object base here (default stdout)")
	resultPath := fs.String("result", "", "also write the fixpoint result(P) with all versions")
	trace := fs.Bool("trace", false, "print every fired update")
	stats := fs.Bool("stats", false, "print evaluation statistics")
	history := fs.String("history", "", "print the version history of the named object")
	explain := fs.String("explain", "", "explain where the given fact (concrete syntax) came from")
	fs.Parse(args)
	if *obPath == "" || *progPath == "" {
		return fmt.Errorf("run: -ob and -prog are required")
	}
	ob, err := loadBase(*obPath)
	if err != nil {
		return err
	}
	p, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	var opts []core.Option
	if *trace || *explain != "" {
		opts = append(opts, core.WithTrace())
	}
	res, err := core.New(opts...).Apply(ob, p)
	if err != nil {
		return err
	}
	if *trace {
		for _, ev := range res.Trace {
			fmt.Fprintln(os.Stderr, ev)
		}
	}
	if *stats {
		fmt.Fprintf(os.Stderr, "strata: %d, fired updates: %d, iterations per stratum: %v\n",
			res.Assignment.NumStrata(), res.Fired, res.Iterations)
		fmt.Fprintf(os.Stderr, "result(P): %d facts, ob': %d facts\n", res.Result.Size(), res.Final.Size())
	}
	if *resultPath != "" {
		if err := os.WriteFile(*resultPath, []byte(parser.FormatFacts(res.Result, true)), 0o644); err != nil {
			return err
		}
	}
	if *explain != "" {
		facts, err := parser.Facts(*explain, "explain")
		if err != nil {
			return fmt.Errorf("run: -explain: %w", err)
		}
		for _, f := range facts {
			fmt.Fprintln(os.Stderr, res.Explain(f))
		}
	}
	if *history != "" {
		steps := eval.History(res.Result, term.Sym(*history))
		if len(steps) == 0 {
			fmt.Fprintf(os.Stderr, "no versions of %s\n", *history)
		}
		for _, s := range steps {
			fmt.Fprintln(os.Stderr, " ", s)
		}
	}
	out := parser.FormatFacts(res.Final, false)
	if *outPath == "" {
		fmt.Print(out)
		return nil
	}
	return os.WriteFile(*outPath, []byte(out), 0o644)
}

// cmdTrace applies a program with full evaluation tracing and prints the
// span tree (parse, safety, stratification, every stratum's iterations
// down to per-rule matching, the copy phase) plus the per-rule hot list —
// the same tree POST /v1/apply?trace=1 returns.
func cmdTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (default: base.vlg next to PROG if present, else empty)")
	asJSON := fs.Bool("json", false, "emit the trace as JSON instead of the tree")
	chromePath := fs.String("chrome", "", "also write Chrome trace_event JSON here (chrome://tracing, Perfetto)")
	top := fs.Int("top", 0, "limit the rule hot list to the N hottest rules")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("trace: usage: verlog trace [-ob BASE] [-json] [-chrome FILE] [-top N] PROG")
	}
	progPath := fs.Arg(0)

	// Default base: a sibling base.vlg, the conventional layout of
	// examples/ — otherwise start from an empty object base.
	ob := objectbase.New()
	path := *obPath
	if path == "" {
		sibling := filepath.Join(filepath.Dir(progPath), "base.vlg")
		if _, err := os.Stat(sibling); err == nil {
			path = sibling
		}
	}
	if path != "" {
		var err error
		if ob, err = loadBase(path); err != nil {
			return err
		}
	}

	tr := obs.NewTrace("verlog trace " + filepath.Base(progPath))
	parseSpan := tr.Root.StartChild("parse")
	p, err := loadProgram(progPath)
	parseSpan.End()
	if err != nil {
		return err
	}
	parseSpan.SetInt("rules", int64(len(p.Rules)))

	opts := []core.Option{core.WithSpan(tr.Root), core.WithTrace()}
	res, err := core.New(opts...).Apply(ob, p)
	tr.Finish()
	if err != nil {
		return err
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(tr); err != nil {
			return err
		}
	} else {
		tr.WriteTree(os.Stdout)
		stats := res.RuleStats
		if *top > 0 && *top < len(stats) {
			stats = stats[:*top]
		}
		fmt.Printf("\nhottest rules (%d fired in total):\n", res.Fired)
		for _, rs := range stats {
			fmt.Printf("  %-16s stratum %d  fired %-4d emitted %-4d matched %-4d iterations %-3d %dus\n",
				rs.Rule, rs.Stratum, rs.Fired, rs.Emitted, rs.Matched, rs.Iterations, rs.TimeUS)
		}
	}

	if *chromePath != "" {
		f, err := os.Create(*chromePath)
		if err != nil {
			return err
		}
		if err := tr.WriteChrome(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s (load in chrome://tracing or https://ui.perfetto.dev)\n", *chromePath)
	}
	return nil
}

func cmdCheck(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	progPath := fs.String("prog", "", "update-program file (required)")
	fs.Parse(args)
	if *progPath == "" {
		return fmt.Errorf("check: -prog is required")
	}
	p, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	if err := safety.Program(p); err != nil {
		return err
	}
	a, err := strata.Stratify(p)
	if err != nil {
		return err
	}
	fmt.Printf("%d rules, safe, stratifiable into %d strata: %s\n",
		len(p.Rules), a.NumStrata(), a.Format(p.RuleLabels()))
	return nil
}

// cmdVet runs the multi-pass static analyzer over one or more program
// files and prints every diagnostic (file:line:col, stable code, message).
// Exit status is 1 when any diagnostic has error severity; warnings and
// infos alone exit 0 (use -strict to fail on warnings too).
func cmdVet(args []string) error {
	fs := flag.NewFlagSet("vet", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit diagnostics as a JSON array")
	obPath := fs.String("ob", "", "object base supplying the method vocabulary (sharper lint passes)")
	maxDepth := fs.Int("max-depth", 0, "version nesting depth above which V0106 fires (default 4)")
	strict := fs.Bool("strict", false, "treat warnings as failures")
	deep := fs.Bool("deep", false, "run the semantic tier too (class/sort inference, cost model, boundedness: V03xx)")
	fs.Parse(args)
	if fs.NArg() == 0 {
		return fmt.Errorf("vet: usage: verlog vet [-json] [-deep] [-ob BASE] [-max-depth N] FILES...")
	}
	opts := analysis.Options{MaxDepth: *maxDepth}
	if *obPath != "" {
		ob, err := loadBase(*obPath)
		if err != nil {
			return err
		}
		opts.Base = ob
	}
	type fileReport struct {
		File        string                `json:"file"`
		Diagnostics []analysis.Diagnostic `json:"diagnostics"`
		Facts       *analysis.Facts       `json:"facts,omitempty"`
	}
	var all []analysis.Diagnostic
	var reports []fileReport
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var ds []analysis.Diagnostic
		var facts *analysis.Facts
		if *deep {
			ds, facts, _ = analysis.DeepSource(string(src), path, opts)
		} else {
			ds, _ = analysis.Source(string(src), path, opts)
		}
		if ds == nil {
			ds = []analysis.Diagnostic{}
		}
		all = append(all, ds...)
		reports = append(reports, fileReport{File: path, Diagnostics: ds, Facts: facts})
	}
	var nErr, nWarn int
	for _, d := range all {
		switch d.Severity {
		case analysis.Error:
			nErr++
		case analysis.Warning:
			nWarn++
		}
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		if *deep {
			// With -deep the JSON shape is per-file: diagnostics plus the
			// machine-readable Facts. Without -deep the flat diagnostics
			// array is preserved for existing consumers.
			if err := enc.Encode(reports); err != nil {
				return err
			}
		} else {
			if all == nil {
				all = []analysis.Diagnostic{}
			}
			if err := enc.Encode(all); err != nil {
				return err
			}
		}
	} else {
		for _, d := range all {
			fmt.Println(d)
		}
	}
	if nErr > 0 || (*strict && nWarn > 0) {
		return fmt.Errorf("vet: %d error(s), %d warning(s)", nErr, nWarn)
	}
	return nil
}

func cmdStrata(args []string) error {
	fs := flag.NewFlagSet("strata", flag.ExitOnError)
	progPath := fs.String("prog", "", "update-program file (required)")
	edges := fs.Bool("edges", false, "also print the constraint edges")
	fs.Parse(args)
	if *progPath == "" {
		return fmt.Errorf("strata: -prog is required")
	}
	p, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	a, err := strata.Stratify(p)
	if err != nil {
		return err
	}
	labels := p.RuleLabels()
	for i, s := range a.Strata {
		names := make([]string, len(s))
		for j, r := range s {
			names[j] = labels[r]
		}
		fmt.Printf("stratum %d: {%s}\n", i+1, strings.Join(names, ", "))
	}
	if *edges {
		es := append([]strata.Edge(nil), a.Edges...)
		sort.Slice(es, func(i, j int) bool {
			if es[i].To != es[j].To {
				return es[i].To < es[j].To
			}
			return es[i].From < es[j].From
		})
		for _, e := range es {
			rel := "<="
			if e.Strict {
				rel = "< "
			}
			fmt.Printf("  (%c) %s %s %s\n", e.Cond, labels[e.From], rel, labels[e.To])
		}
	}
	return nil
}

func cmdQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (required)")
	derivedPath := fs.String("derived", "", "derived-rule file to evaluate before querying")
	fs.Parse(args)
	if *obPath == "" || fs.NArg() != 1 {
		return fmt.Errorf("query: usage: verlog query -ob BASE [-derived RULES] 'QUERY'")
	}
	ob, err := loadBase(*obPath)
	if err != nil {
		return err
	}
	if *derivedPath != "" {
		src, err := os.ReadFile(*derivedPath)
		if err != nil {
			return err
		}
		dp, err := parser.Derived(string(src), *derivedPath)
		if err != nil {
			return err
		}
		if ob, err = derived.Run(ob, dp, derived.Options{}); err != nil {
			return err
		}
	}
	bindings, err := core.Query(ob, fs.Arg(0))
	if err != nil {
		return err
	}
	for _, b := range bindings {
		fmt.Println(b)
	}
	fmt.Fprintf(os.Stderr, "%d answers\n", len(bindings))
	return nil
}

func cmdDiff(args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	fromPath := fs.String("from", "", "old object base (required)")
	toPath := fs.String("to", "", "new object base (required)")
	fs.Parse(args)
	if *fromPath == "" || *toPath == "" {
		return fmt.Errorf("diff: -from and -to are required")
	}
	from, err := loadBase(*fromPath)
	if err != nil {
		return err
	}
	to, err := loadBase(*toPath)
	if err != nil {
		return err
	}
	d := objectbase.Compute(from, to)
	for _, f := range d.Removed {
		fmt.Printf("- %s.\n", f)
	}
	for _, f := range d.Added {
		fmt.Printf("+ %s.\n", f)
	}
	if d.Empty() {
		fmt.Fprintln(os.Stderr, "bases are identical")
	}
	return nil
}

func cmdFmt(args []string) error {
	fs := flag.NewFlagSet("fmt", flag.ExitOnError)
	progPath := fs.String("prog", "", "update-program file")
	obPath := fs.String("ob", "", "object base file")
	fs.Parse(args)
	switch {
	case *progPath != "":
		p, err := loadProgram(*progPath)
		if err != nil {
			return err
		}
		fmt.Print(parser.FormatProgram(p))
		return nil
	case *obPath != "":
		ob, err := loadBase(*obPath)
		if err != nil {
			return err
		}
		fmt.Print(parser.FormatFacts(ob, false))
		return nil
	default:
		return fmt.Errorf("fmt: one of -prog or -ob is required")
	}
}

func cmdRepl(args []string) error {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	obPath := fs.String("ob", "", "load this object base first")
	fs.Parse(args)
	session := repl.New(os.Stdout)
	if *obPath != "" {
		ob, err := loadBase(*obPath)
		if err != nil {
			return err
		}
		session.SetBase(ob)
		fmt.Printf("loaded %s (%d facts); .help for commands\n", *obPath, ob.Size())
	} else {
		fmt.Println("empty base; .help for commands")
	}
	return session.Run(os.Stdin, true)
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ExitOnError)
	inPath := fs.String("in", "", "input object base, text or binary (required)")
	outPath := fs.String("o", "", "output file (required); format chosen by -to")
	to := fs.String("to", "bin", "output format: bin (gob snapshot) or text")
	fs.Parse(args)
	if *inPath == "" || *outPath == "" {
		return fmt.Errorf("convert: -in and -o are required")
	}
	// Sniff the input: binary snapshots never start with printable fact
	// syntax, so try binary first and fall back to text.
	var base *objectbase.Base
	if f, err := os.Open(*inPath); err == nil {
		base, err = storage.LoadBinary(f)
		f.Close()
		if err != nil {
			base = nil
		}
	}
	if base == nil {
		var err error
		base, err = loadBase(*inPath)
		if err != nil {
			return err
		}
	}
	out, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	switch *to {
	case "bin":
		err = storage.SaveBinary(out, base)
	case "text":
		err = storage.SaveText(out, base)
	default:
		err = fmt.Errorf("convert: unknown format %q (bin or text)", *to)
	}
	if err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d facts)\n", *outPath, base.Size())
	return nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (required; supplies the statistics)")
	progPath := fs.String("prog", "", "update-program file (required)")
	static := fs.Bool("static", false, "show the source-order planner instead")
	fs.Parse(args)
	if *obPath == "" || *progPath == "" {
		return fmt.Errorf("plan: -ob and -prog are required")
	}
	ob, err := loadBase(*obPath)
	if err != nil {
		return err
	}
	p, err := loadProgram(*progPath)
	if err != nil {
		return err
	}
	for _, rp := range eval.ExplainPlans(ob, p, *static) {
		fmt.Print(rp)
	}
	return nil
}

func cmdExplainPlan(args []string) error {
	fs := flag.NewFlagSet("explain-plan", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base supplying cardinality statistics (default: static estimates)")
	asJSON := fs.Bool("json", false, "emit the analysis Facts as JSON instead of tables")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("explain-plan: usage: verlog explain-plan [-ob BASE] [-json] FILE")
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	opts := analysis.Options{}
	if *obPath != "" {
		ob, err := loadBase(*obPath)
		if err != nil {
			return err
		}
		opts.Base = ob
	}
	ds, facts, _ := analysis.DeepSource(string(src), path, opts)
	if analysis.HasErrors(ds) {
		for _, d := range ds {
			fmt.Fprintln(os.Stderr, d)
		}
		return fmt.Errorf("explain-plan: %s does not analyze clean", path)
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetEscapeHTML(false)
		enc.SetIndent("", "  ")
		return enc.Encode(facts)
	}
	if !facts.Base.Supplied {
		fmt.Println("(no -ob: static estimates)")
	} else {
		fmt.Printf("base: %d objects, %d versions, %d facts\n",
			facts.Base.Objects, facts.Base.Versions, facts.Base.Facts)
	}
	for _, rf := range facts.Rules {
		fmt.Printf("\nrule %s", rf.Rule)
		if rf.Stratum >= 0 {
			fmt.Printf("  [stratum %d]", rf.Stratum+1)
		}
		if rf.Recursive {
			fmt.Print("  [recursive]")
		}
		fmt.Printf("\n  cost %.0f  fanout %.0f\n", rf.Cost, rf.Fanout)
		for i, l := range rf.Literals {
			delta := " "
			if l.Delta {
				delta = "Δ"
			}
			access := l.Access
			if access == "" {
				access = "-"
			}
			est := fmt.Sprintf("est %d", l.EstRows)
			if l.DeltaRows > 0 {
				est += fmt.Sprintf(" (Δ %d)", l.DeltaRows)
			}
			fmt.Printf("  %2d %s %-9s %-12s %-16s %s\n", i+1, delta, l.Kind, access, est, l.Literal)
		}
		for _, v := range rf.Vars {
			line := fmt.Sprintf("  var %s: %s", v.Var, strings.Join(v.Sorts, "|"))
			if len(v.Classes) > 0 {
				line += " in {" + strings.Join(v.Classes, ", ") + "}"
			}
			if v.Empty {
				line += " (never matches)"
			}
			fmt.Println(line)
		}
	}
	if len(facts.Strata) > 0 {
		fmt.Println("\nstrata:")
		for _, sf := range facts.Strata {
			rec := ""
			if sf.Recursive {
				rec = "  recursive"
			}
			fmt.Printf("  %d: {%s} cost %.0f%s\n", sf.Stratum+1, strings.Join(sf.Rules, ", "), sf.Cost, rec)
		}
	}
	return nil
}

func cmdStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (required)")
	fs.Parse(args)
	if *obPath == "" {
		return fmt.Errorf("stats: -ob is required")
	}
	ob, err := loadBase(*obPath)
	if err != nil {
		return err
	}
	fmt.Print(objectbase.CollectStats(ob))
	return nil
}

func cmdSchema(args []string) error {
	fs := flag.NewFlagSet("schema", flag.ExitOnError)
	obPath := fs.String("ob", "", "object base file (required)")
	schemaPath := fs.String("schema", "", "schema file with class.method -> type facts (required)")
	progPath := fs.String("prog", "", "also apply this program and report the schema evolution")
	strict := fs.Bool("strict", false, "flag undeclared methods on classed objects")
	fs.Parse(args)
	if *obPath == "" || *schemaPath == "" {
		return fmt.Errorf("schema: -ob and -schema are required")
	}
	ob, err := loadBase(*obPath)
	if err != nil {
		return err
	}
	src, err := os.ReadFile(*schemaPath)
	if err != nil {
		return err
	}
	sch, err := schema.Parse(string(src), *schemaPath)
	if err != nil {
		return err
	}
	vs := sch.Check(ob, schema.Options{RequireDeclared: *strict})
	for _, v := range vs {
		fmt.Println(v)
	}
	if len(vs) == 0 {
		fmt.Printf("ok: base conforms to %d class(es)\n", len(sch.Classes()))
	}
	if *progPath != "" {
		p, err := loadProgram(*progPath)
		if err != nil {
			return err
		}
		res, err := core.New().Apply(ob, p)
		if err != nil {
			return err
		}
		after := sch.Check(res.Final, schema.Options{RequireDeclared: *strict})
		fmt.Printf("after program: %d violation(s)\n", len(after))
		for _, v := range after {
			fmt.Println(" ", v)
		}
		for _, ev := range sch.EvolutionReport(ob, res.Final) {
			fmt.Printf("class %s: gained %v, lost %v\n", ev.Class, ev.Gained, ev.Lost)
		}
	}
	if len(vs) > 0 {
		return fmt.Errorf("schema: %d violation(s)", len(vs))
	}
	return nil
}

func cmdRepo(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("repo: usage: verlog repo (init|apply|log|at) ...")
	}
	sub, rest := args[0], args[1:]
	fs := flag.NewFlagSet("repo "+sub, flag.ExitOnError)
	dir := fs.String("dir", "", "repository directory (required)")
	obPath := fs.String("ob", "", "initial object base (init)")
	progPath := fs.String("prog", "", "update-program (apply)")
	state := fs.Int("state", -1, "state number (at)")
	constraintsPath := fs.String("file", "", "constraints file (constrain)")
	fs.Parse(rest)
	if *dir == "" {
		return fmt.Errorf("repo %s: -dir is required", sub)
	}
	switch sub {
	case "init":
		if *obPath == "" {
			return fmt.Errorf("repo init: -ob is required")
		}
		ob, err := loadBase(*obPath)
		if err != nil {
			return err
		}
		if _, err := repository.Init(*dir, ob); err != nil {
			return err
		}
		fmt.Printf("initialized repository in %s (%d facts)\n", *dir, ob.Size())
		return nil
	case "apply":
		if *progPath == "" {
			return fmt.Errorf("repo apply: -prog is required")
		}
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		p, err := loadProgram(*progPath)
		if err != nil {
			return err
		}
		res, err := r.Apply(p)
		if err != nil {
			return err
		}
		n, _ := r.Len()
		fmt.Printf("applied as state %d: %d updates fired, ob' has %d facts\n",
			n, res.Fired, res.Final.Size())
		return nil
	case "log":
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		entries, err := r.Entries()
		if err != nil {
			return err
		}
		for _, e := range entries {
			first := strings.SplitN(strings.TrimSpace(e.Program), "\n", 2)[0]
			fmt.Printf("state %d: +%d -%d facts, %d fired, %d strata | %s\n",
				e.Seq, e.Added.Len(), e.Removed.Len(), e.Fired, e.Strata, first)
		}
		return nil
	case "verify":
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		if err := r.Verify(); err != nil {
			return err
		}
		n, _ := r.Len()
		fmt.Printf("ok: %d journaled state(s) replay to the head\n", n)
		return nil
	case "compact":
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		n, _ := r.Len()
		if err := r.Compact(); err != nil {
			return err
		}
		fmt.Printf("compacted: %d journaled state(s) folded into the snapshot\n", n)
		return nil
	case "constrain":
		if *constraintsPath == "" {
			return fmt.Errorf("repo constrain: -file is required")
		}
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(*constraintsPath)
		if err != nil {
			return err
		}
		if err := r.SetConstraints(string(src)); err != nil {
			return err
		}
		cs, _ := r.Constraints()
		fmt.Printf("installed %d constraint(s)\n", len(cs))
		return nil
	case "at":
		if *state < 0 {
			return fmt.Errorf("repo at: -state is required")
		}
		r, err := repository.Open(*dir)
		if err != nil {
			return err
		}
		b, err := r.At(*state)
		if err != nil {
			return err
		}
		fmt.Print(parser.FormatFacts(b, false))
		return nil
	default:
		return fmt.Errorf("repo: unknown subcommand %q", sub)
	}
}
