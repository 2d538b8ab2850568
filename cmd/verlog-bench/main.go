// Command verlog-bench runs the experiment suite of EXPERIMENTS.md and
// prints one table per experiment. Every figure and worked example of the
// paper has an experiment (E1-E5), plus the characterization and ablation
// studies (E6 onwards).
//
// Usage:
//
//	verlog-bench                      # run everything
//	verlog-bench -run E2,E9           # run selected experiments
//	verlog-bench -list                # list experiments
//	verlog-bench -gobench-json FILE   # convert `go test -bench` output to JSON
//	verlog-bench -table-json FILE     # also write the result tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
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
	tableJSON := fs.String("table-json", "", "write the result tables of the selected experiments as JSON to FILE")
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

	if *list {
		for _, e := range bench.All() {
			fmt.Fprintf(out, "%-4s %s\n", e.ID, e.Title)
		}
		return 0
	}

	var selected []bench.Experiment
	if *runList == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*runList, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.Get(id)
			if !ok {
				fmt.Fprintf(errOut, "verlog-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	failed := false
	var tables []*bench.Table
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
		tables = append(tables, tbl)
		tbl.Fprint(out)
		if strings.Contains(tbl.String(), "FAIL") {
			failed = true
		}
	}
	if *tableJSON != "" {
		data, err := json.MarshalIndent(tables, "", "  ")
		if err != nil {
			fmt.Fprintf(errOut, "verlog-bench: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*tableJSON, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(errOut, "verlog-bench: %v\n", err)
			return 1
		}
	}
	if failed {
		return 1
	}
	return 0
}
