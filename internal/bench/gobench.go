package bench

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// GoBenchResult is one parsed `go test -bench` result line. Metrics maps
// unit → value for every reported pair (ns/op, B/op, allocs/op, and
// custom b.ReportMetric units such as recs/fsync).
type GoBenchResult struct {
	Name       string             `json:"name"`
	Pkg        string             `json:"pkg,omitempty"`
	Procs      int                `json:"procs,omitempty"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// GoBenchReport is the machine-readable form of a bench run: the context
// lines go test prints (goos, goarch, pkg, cpu) and every result.
type GoBenchReport struct {
	Context map[string]string `json:"context,omitempty"`
	Results []GoBenchResult   `json:"results"`
}

// ParseGoBench parses standard `go test -bench` text output. Non-result
// lines other than the known context keys are ignored, so the input can
// be a full test log.
func ParseGoBench(r io.Reader) (*GoBenchReport, error) {
	rep := &GoBenchReport{Context: map[string]string{}}
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if key, val, ok := strings.Cut(line, ": "); ok {
			switch key {
			case "pkg":
				// A multi-package run prints one header block per package;
				// attribute the following results to it.
				pkg = val
				continue
			case "goos", "goarch", "cpu":
				rep.Context[key] = val
				continue
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// name, iterations, then value/unit pairs.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		res := GoBenchResult{
			Name:       fields[0],
			Pkg:        pkg,
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		// The harness appends -GOMAXPROCS to the name when procs > 1.
		if i := strings.LastIndexByte(res.Name, '-'); i >= 0 {
			if p, err := strconv.Atoi(res.Name[i+1:]); err == nil {
				res.Name, res.Procs = res.Name[:i], p
			}
		}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("bench: bad value %q in line %q", fields[i], line)
			}
			res.Metrics[fields[i+1]] = v
		}
		rep.Results = append(rep.Results, res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	rep.dedupe()
	return rep, nil
}

// dedupe keeps the last result per (pkg, name, procs): when a log contains
// reruns of a benchmark — `make bench` refines the headline benches with a
// longer second pass after the 1x smoke sweep — the refinement wins.
// Order is otherwise preserved (a kept result stays at its first
// position).
func (rep *GoBenchReport) dedupe() {
	type key struct {
		pkg, name string
		procs     int
	}
	last := map[key]GoBenchResult{}
	order := make([]key, 0, len(rep.Results))
	for _, r := range rep.Results {
		k := key{r.Pkg, r.Name, r.Procs}
		if _, seen := last[k]; !seen {
			order = append(order, k)
		}
		last[k] = r
	}
	if len(order) == len(rep.Results) {
		return
	}
	rep.Results = rep.Results[:0]
	for _, k := range order {
		rep.Results = append(rep.Results, last[k])
	}
}

// DeriveOverhead appends the E11 overhead factor — verlog ns/op over the
// hand-coded direct updater's ns/op — as a synthetic result with the
// single metric overhead_x. Reporting the ratio as a first-class metric
// keeps the gap to hand-written code trackable per archived BENCH file
// instead of eyeballed from two raw numbers. A report without both E11
// sides is left unchanged.
func (rep *GoBenchReport) DeriveOverhead() {
	var verlog, direct float64
	pkg := ""
	for _, r := range rep.Results {
		switch r.Name {
		case "BenchmarkE11VsDirect/verlog":
			verlog, pkg = r.Metrics["ns/op"], r.Pkg
		case "BenchmarkE11VsDirect/direct":
			direct = r.Metrics["ns/op"]
		}
	}
	if verlog <= 0 || direct <= 0 {
		return
	}
	rep.Results = append(rep.Results, GoBenchResult{
		Name:       "BenchmarkE11VsDirect/overhead",
		Pkg:        pkg,
		Iterations: 1,
		Metrics:    map[string]float64{"overhead_x": verlog / direct},
	})
}
