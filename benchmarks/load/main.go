// Command load is the repository's end-to-end benchmark: it builds and
// starts a real verlog-server on a fresh directory, drives it through
// package client with closed-loop clients, verifies every reply against
// its own model, and reports the metrics BENCHMARK.json names. See
// ../README.md for the workloads, the metric definitions and how to read
// the numbers.
//
// Usage (from the repository root):
//
//	go run ./benchmarks/load --workload point_update --seed 1 --seconds 20 --trace 0
//	go run ./benchmarks/load --workload all --seed 1
//	go run ./benchmarks/load --workload mixed_rw --seed 1 --trace 1
//	go run ./benchmarks/load --selfcheck 5
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

const (
	buildDir = ".bench_build" // binaries and run directories, inside the checkout
	outDir   = "benchmarks/out"

	// --seconds buys whole rounds of a fixed script, never part of one: a
	// run makes minRounds rounds whatever they take, then as many more as
	// still fit in the budget, up to maxRounds. On a host in a slow phase
	// a run therefore has fewer rounds, not a longer wall time.
	minRounds = 3
	maxRounds = 9
)

// metricDef is one entry of BENCHMARK.json's end_to_end or per_layer list.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json, the one registry of metric names, units
// and bounds: the code emits values by name and this file says which of
// them are reported and how.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(root string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

// env is where and at what size a run happens. The command fills it for a
// real run (server process, scale 1); the smoke test substitutes an
// in-process node, a small scale and no settling.
type env struct {
	scratch string // parent of the run directories
	scale   int
	settle  time.Duration
	outDir  string                // trace files; empty writes none
	newNode func(dir string) node // the server end-to-end rounds run against
}

// findRoot walks up from the working directory to the module root.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if raw, err := os.ReadFile(filepath.Join(dir, "go.mod")); err == nil && strings.HasPrefix(string(raw), "module verlog\n") {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("not inside the verlog module (no go.mod declaring module verlog above the working directory)")
		}
		dir = parent
	}
}

// buildServer compiles cmd/verlog-server into the checkout's build
// directory, once, before anything is timed. VCS stamping is off so that a
// checkout that is not (or sits inside someone else's) git repository
// builds the same way; it does not change the generated code.
func buildServer(root string) (string, error) {
	bin := filepath.Join(root, buildDir, "verlog-server")
	cmd := exec.Command("go", "build", "-buildvcs=false", "-o", bin, "./cmd/verlog-server")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("go build ./cmd/verlog-server: %v\n%s", err, out)
	}
	return bin, nil
}

// hostProbes samples the host's disk and CPU phase around a round.
func hostProbes(dir string, into samples) {
	if d, err := fsyncProbe(dir); err == nil {
		into.add("host.fsync_probe_ms", ms(d))
	}
	into.add("host.cpu_probe_ms", ms(cpuProbe()))
}

// endToEndRound runs one settled, probed round on a fresh node and
// directory.
func endToEndRound(ctx context.Context, e *env, in *instance, scratch, initFile string, round int, t *tally) (roundStats, error) {
	settle(e.settle)
	probes := samples{}
	hostProbes(scratch, probes)
	dir := filepath.Join(scratch, fmt.Sprintf("round-%d", round))
	st, err := runRound(ctx, in, e.newNode(dir), initFile, t)
	if err != nil {
		return nil, fmt.Errorf("round %d: %w", round+1, err)
	}
	hostProbes(scratch, probes)
	for name, v := range probes.medians() {
		st[name] = v
	}
	// Keep the disk footprint at one round; the stderr file stays until
	// the run directory goes.
	os.RemoveAll(dir)
	return st, nil
}

// measureRounds runs lo rounds, then further ones while the longest round
// so far still fits in what is left of budget, up to hi, and reduces them
// to the run's statistics: the median over rounds of every per-round
// statistic.
func measureRounds(ctx context.Context, e *env, in *instance, scratch, initFile string, lo, hi int, budget time.Duration, t *tally) (roundStats, []roundStats, error) {
	var all []roundStats
	var longest time.Duration
	start := time.Now()
	for r := 0; r < hi && (r < lo || time.Since(start)+longest <= budget); r++ {
		roundStart := time.Now()
		st, err := endToEndRound(ctx, e, in, scratch, initFile, r, t)
		if err != nil {
			return nil, all, err
		}
		all = append(all, st)
		longest = max(longest, time.Since(roundStart))
	}
	return medianOfRounds(all), all, nil
}

// prepare builds the seeded instance and writes its base where the server
// can -init from it.
func prepare(e *env, spec *workloadSpec, seed int64) (in *instance, scratch, initFile string, err error) {
	in = spec.instance(seed, e.scale)
	if scratch, err = runDir(e.scratch); err != nil {
		return nil, "", "", err
	}
	initFile = filepath.Join(scratch, "base.vlg")
	if err = os.WriteFile(initFile, []byte(in.baseText()), 0o644); err != nil {
		os.RemoveAll(scratch)
		return nil, "", "", err
	}
	return in, scratch, initFile, nil
}

// endToEnd is a --trace 0 run: lo to hi rounds against the server within
// budget, every metric the median of the per-round statistic.
func endToEnd(ctx context.Context, e *env, spec *workloadSpec, seed int64, lo, hi int, budget time.Duration) (roundStats, []roundStats, tally, error) {
	var t tally
	in, scratch, initFile, err := prepare(e, spec, seed)
	if err != nil {
		return nil, nil, t, err
	}
	defer os.RemoveAll(scratch)
	st, all, err := measureRounds(ctx, e, in, scratch, initFile, lo, hi, budget, &t)
	return st, all, t, err
}

// traced is a --trace 1 run: lo to hi rounds against the server within
// budget (the end-to-end timings that gate nothing, the process-level
// metrics and the program's counters), then the in-process passes.
func traced(ctx context.Context, e *env, spec *workloadSpec, seed int64, lo, hi int, budget time.Duration) (roundStats, tally, error) {
	var t tally
	in, scratch, initFile, err := prepare(e, spec, seed)
	if err != nil {
		return nil, t, err
	}
	defer os.RemoveAll(scratch)
	st, _, err := measureRounds(ctx, e, in, scratch, initFile, lo, hi, budget, &t)
	if err != nil {
		return nil, t, err
	}

	plain, twin, direct := spec.instance(seed, e.scale), spec.instance(seed, e.scale), spec.instance(seed, e.scale)
	quarter(plain)
	quarter(twin)
	quarter(direct)
	recH, recD := newRecorder(), newRecorder()
	hst, headH, err := passH(ctx, plain, twin, scratch, initFile, recH, &t)
	if err != nil {
		return nil, t, err
	}
	dst, headD, err := passD(direct, scratch, recD)
	if err != nil {
		return nil, t, err
	}
	// Both passes replayed the same script from the same base: their heads
	// must be the same object base.
	var same error
	if headH != headD {
		same = errors.New("pass H and pass D ended on different heads")
	}
	t.check(same)
	for _, part := range []roundStats{hst, dst} {
		for name, v := range part {
			st[name] = v
		}
	}
	if e.outDir != "" {
		if err := os.MkdirAll(e.outDir, 0o755); err != nil {
			return nil, t, err
		}
		path := filepath.Join(e.outDir, spec.name+".trace.json")
		if err := writeChrome(path, []tracePass{{"pass H: client -> http -> server", recH}, {"pass D: layers direct", recD}}); err != nil {
			return nil, t, err
		}
		fmt.Printf("trace: %s (%d spans)\n", path, len(recH.spans)+len(recD.spans))
	}
	return st, t, nil
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics picks the metrics defs names out of st; a metric the run did not
// produce is an error, not a silent gap.
func selectMetrics(defs []metricDef, st roundStats) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := st[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if missing != nil {
		return nil, fmt.Errorf("metrics named in BENCHMARK.json but not measured: %s", strings.Join(missing, ", "))
	}
	return out, nil
}

func printHeader(root string, seconds int) {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	envOr := func(k string) string {
		if v := os.Getenv(k); v != "" {
			return v + " (inherited from the environment)"
		}
		return "program default"
	}
	fmt.Printf("# verlog end-to-end benchmark | nproc=%d %s commit=%s | server GOMAXPROCS: %s, GOGC: %s | %d s of rounds, %d to %d of them\n",
		runtime.NumCPU(), runtime.Version(), commit, envOr("GOMAXPROCS"), envOr("GOGC"), seconds, minRounds, maxRounds)
}

func printTable(defs []metricDef, st roundStats, perRound []roundStats) {
	for _, d := range defs {
		v, ok := st[d.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-44s %14.4f %-6s", d.Name, v, d.Unit)
		if len(perRound) > 1 {
			var rs []string
			for _, r := range perRound {
				rs = append(rs, fmt.Sprintf("%.4g", r[d.Name]))
			}
			line += "  rounds: " + strings.Join(rs, " ")
		}
		fmt.Println(line)
	}
}

// runOne measures one workload and prints its table and result line.
func runOne(ctx context.Context, e *env, bf *benchmarkFile, spec *workloadSpec, seed int64, seconds int, trace bool) (bool, error) {
	var (
		st       roundStats
		perRound []roundStats
		t        tally
		err      error
		defs     = bf.EndToEnd
	)
	why := ""
	for _, w := range bf.Workloads {
		if w.Name == spec.name {
			why = w.Why
		}
	}
	fmt.Printf("## %s seed=%d clients=%d (closed loop) — %s\n", spec.name, seed, spec.clients, why)
	if trace {
		defs = bf.PerLayer
		// Half the budget goes to server rounds, the rest to the passes.
		st, t, err = traced(ctx, e, spec, seed, 1, maxRounds, time.Duration(seconds)*time.Second/2)
	} else {
		st, perRound, t, err = endToEnd(ctx, e, spec, seed, minRounds, maxRounds, time.Duration(seconds)*time.Second)
	}
	if err != nil {
		return false, err
	}
	printTable(defs, st, perRound)
	if !trace {
		// What the rounds measured besides: the timings that gate nothing,
		// the server process from outside, and the host's phase beside the
		// numbers it distorts.
		fmt.Println("-- not in the result line (per-layer metrics these rounds also measure):")
		printTable(bf.PerLayer, st, perRound)
	}
	fmt.Printf("ops: attempted=%d failed=%d refused=%d\n", t.attempted, t.failed, t.refused)
	if t.firstErr != nil {
		fmt.Printf("first failure: %v\n", t.firstErr)
	}
	metrics, err := selectMetrics(defs, st)
	if err != nil {
		return false, err
	}
	line, err := json.Marshal(resultLine{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
	if err != nil {
		return false, err
	}
	fmt.Println(string(line))
	return t.failed == 0, nil
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", ")+", or all")
	seed := flag.Int64("seed", 1, "seed of the generated base and operation script")
	seconds := flag.Int("seconds", 0, "time budget of the measured rounds (default: BENCHMARK.json run_seconds); buys whole rounds of a fixed script")
	trace := flag.Int("trace", 0, "1: report the per-layer metrics from a traced run instead of the end-to-end metrics")
	selfcheck := flag.Int("selfcheck", 0, "run K interleaved pairs of end-to-end runs per workload and compare the two sets against the bounds")
	flag.Parse()
	if err := realMain(*workloadName, *seed, *seconds, *trace != 0, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "load:", err)
		os.Exit(1)
	}
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func realMain(workloadName string, seed int64, seconds int, trace bool, selfcheck int) error {
	root, err := findRoot()
	if err != nil {
		return err
	}
	bf, err := readBenchmarkFile(root)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		seconds = bf.RunSeconds
	}
	bin, err := buildServer(root)
	if err != nil {
		return err
	}
	e := &env{
		scratch: filepath.Join(root, buildDir),
		scale:   1,
		settle:  500 * time.Millisecond,
		outDir:  filepath.Join(root, outDir),
		newNode: func(dir string) node { return &procNode{bin: bin, repoDir: dir} },
	}
	ctx := context.Background()
	printHeader(root, seconds)
	if selfcheck > 0 {
		return runSelfcheck(ctx, e, bf, seed, seconds, selfcheck)
	}
	var specs []*workloadSpec
	if workloadName == "all" {
		specs = workloads
	} else if spec := findWorkload(workloadName); spec != nil {
		specs = []*workloadSpec{spec}
	} else {
		return fmt.Errorf("unknown workload %q (have %s, all)", workloadName, strings.Join(workloadNames(), ", "))
	}
	failed := false
	for _, spec := range specs {
		ok, err := runOne(ctx, e, bf, spec, seed, seconds, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", spec.name, err)
		}
		failed = failed || !ok
	}
	if failed {
		return errors.New("operations failed or the oracle disagreed; see the result line")
	}
	return nil
}
