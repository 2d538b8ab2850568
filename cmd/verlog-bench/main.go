// Command verlog-bench prints the tables of the paper experiments of
// EXPERIMENTS.md (E1-E9: every figure and worked example of the paper),
// counts and correctness checks with no times — the times of the same runs
// come from `go test -bench`. It also converts `go test -bench` output to
// JSON, the form of the BENCH_10.json reference.
//
// Usage:
//
//	verlog-bench                      # run everything
//	verlog-bench -run E2,E9           # run selected experiments
//	verlog-bench -list                # list experiments
//	verlog-bench -gobench-json FILE   # convert `go test -bench` output to JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"verlog/internal/bench"
)

func main() {
	code := run(os.Args[1:], os.Stdout, os.Stderr)
	os.Exit(code)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("verlog-bench", flag.ContinueOnError)
	fs.SetOutput(errOut)
	runList := fs.String("run", "", "comma-separated experiment IDs (default: all)")
	list := fs.Bool("list", false, "list experiments and exit")
	gobenchJSON := fs.String("gobench-json", "", "parse `go test -bench` output from FILE (- for stdin) and print JSON")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *gobenchJSON != "" {
		in := io.Reader(os.Stdin)
		if *gobenchJSON != "-" {
			f, err := os.Open(*gobenchJSON)
			if err != nil {
				fmt.Fprintf(errOut, "verlog-bench: %v\n", err)
				return 2
			}
			defer f.Close()
			in = f
		}
		rep, err := bench.ParseGoBench(in)
		if err != nil {
			fmt.Fprintf(errOut, "verlog-bench: %v\n", err)
			return 1
		}
		rep.DeriveOverhead()
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintf(errOut, "verlog-bench: %v\n", err)
			return 1
		}
		return 0
	}

	all := bench.All()
	if *list {
		for _, e := range all {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	selected := all
	if *runList != "" {
		selected = nil
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			i := slices.IndexFunc(all, func(e bench.Experiment) bool { return e.ID == id })
			if i < 0 {
				fmt.Fprintf(errOut, "verlog-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, all[i])
		}
	}

	failed := false
	for i, e := range selected {
		if i > 0 {
			fmt.Fprintln(out)
		}
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(errOut, "verlog-bench: %s: %v\n", e.ID, err)
			failed = true
			continue
		}
		tbl.Fprint(out)
		if strings.Contains(tbl.String(), "FAIL") {
			failed = true
		}
	}
	if failed {
		return 1
	}
	return 0
}
