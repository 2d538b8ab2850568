package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"verlog/internal/fsio"
)

const testScale = 50 // the smoke test's 1/50 of the benchmark's sizes

func countKind(ops []op, k opKind) int {
	n := 0
	for _, o := range ops {
		if o.kind == k {
			n++
		}
	}
	return n
}

func TestScriptDeterminism(t *testing.T) {
	for _, w := range workloads {
		a, b, other := w.instance(7, testScale), w.instance(7, testScale), w.instance(8, testScale)
		if !bytes.Equal(a.script.bytes(), b.script.bytes()) {
			t.Errorf("%s: the same seed gave two different scripts", w.name)
		}
		if a.baseText() != b.baseText() {
			t.Errorf("%s: the same seed gave two different bases", w.name)
		}
		if bytes.Equal(a.script.bytes(), other.script.bytes()) {
			t.Errorf("%s: seeds 7 and 8 gave the same script", w.name)
		}
		if n := countKind(a.script.measured, opApply); n == 0 {
			t.Errorf("%s: measured script has no applies", w.name)
		}
	}
}

// The benchmark-scale scripts must put at least 100 samples, and at least
// 10 beyond the p90, behind every latency percentile of a round.
func TestFullScaleSampleCounts(t *testing.T) {
	for _, w := range workloads {
		in := w.instance(1, 1)
		for _, k := range []opKind{opApply, opQuery} {
			if n := countKind(in.script.measured, k); n < 100 {
				t.Errorf("%s: %d %s samples per round, want >= 100", w.name, n, k)
			}
		}
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct{ p, want float64 }{{50, 5}, {90, 9}, {100, 10}, {1, 1}, {10, 1}, {11, 2}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("percentile sorted its argument in place")
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

func TestMedianAndRounds(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median(3,1,2) = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v", got)
	}
	// One slow round out of three moves nothing.
	got := medianOfRounds([]roundStats{
		{"apply_p50_ms": 130, "restart_s": 0.30},
		{"apply_p50_ms": 205, "restart_s": 0.31},
		{"apply_p50_ms": 131, "restart_s": 0.29},
	})
	if got["apply_p50_ms"] != 131 || got["restart_s"] != 0.30 {
		t.Errorf("medianOfRounds = %v", got)
	}
}

func TestQuartileSpread(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("quartileSpread of one sample = %v", got)
	}
}

func TestCountingFS(t *testing.T) {
	dir := t.TempDir()
	cfs := &countingFS{next: fsio.OS}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	tmp, final := filepath.Join(dir, "a.tmp"), filepath.Join(dir, "a")
	f, err := cfs.Create(tmp)
	must(err)
	_, err = f.Write([]byte("abc"))
	must(err)
	_, err = f.Write([]byte("defgh"))
	must(err)
	must(f.Sync())
	must(f.Close())
	must(cfs.Rename(tmp, final))
	must(cfs.SyncDir(dir))
	f, err = cfs.Append(final)
	must(err)
	_, err = f.Write([]byte("ij"))
	must(err)
	must(f.Sync())
	must(f.Close())
	must(cfs.Truncate(final, 4))
	data, err := cfs.ReadFile(final)
	must(err)
	if string(data) != "abcd" {
		t.Errorf("file holds %q", data)
	}
	must(cfs.Remove(final))

	c := cfs.counts()
	c.SyncTime, c.WriteTime, c.OtherTime = 0, 0, 0
	// create+append; three writes of 3+5+2 bytes; two file syncs, one
	// directory sync and one truncate (which syncs); one rename.
	want := fsCounts{Creates: 2, Writes: 3, WriteBytes: 10, Syncs: 4, Renames: 1}
	if c != want {
		t.Errorf("counts = %+v, want %+v", c, want)
	}
	if cfs.counts().Time() <= 0 {
		t.Error("no time was booked")
	}
	if d := cfs.counts().sub(cfs.counts()); d != (fsCounts{}) {
		t.Errorf("a count minus itself = %+v", d)
	}
}

// TestSmokeAllWorkloads runs every workload in-process at 1/50 scale, both
// ways, and checks that the two runs between them emit exactly the
// metrics BENCHMARK.json names, that the oracle agrees throughout, and
// that the trace file is written.
func TestSmokeAllWorkloads(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(bf.EndToEnd) == 0 || len(bf.PerLayer) == 0 || bf.RunSeconds <= 0 {
		t.Fatalf("BENCHMARK.json is missing metrics or run_seconds: %+v", bf)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the code has %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if findWorkload(w.Name) == nil || w.Why == "" {
			t.Errorf("BENCHMARK.json workload %q: unknown to the code, or without a why", w.Name)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), bf.EndToEnd...), bf.PerLayer...) {
		if _, dup := units[d.Name]; dup {
			t.Errorf("BENCHMARK.json names %s twice", d.Name)
		}
		if d.Unit == "" {
			t.Errorf("BENCHMARK.json gives %s no unit", d.Name)
		}
		units[d.Name] = d.Unit
	}
	e := &env{
		scratch: t.TempDir(),
		scale:   testScale,
		outDir:  t.TempDir(),
		newNode: func(dir string) node { return &inprocNode{repoDir: dir} },
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	for _, w := range workloads {
		st, perRound, tl, err := endToEnd(ctx, e, w, 3, 2, 2, 0)
		if err != nil {
			t.Fatalf("%s: end-to-end run: %v", w.name, err)
		}
		if tl.failed != 0 || tl.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, tl.failed, tl.attempted, tl.firstErr)
		}
		if len(perRound) != 2 {
			t.Errorf("%s: %d rounds reported, want 2", w.name, len(perRound))
		}
		e2e, err := selectMetrics(bf.EndToEnd, st)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, v := range e2e {
			if v.Unit != units[name] || math.IsNaN(v.Value) || v.Value <= 0 {
				t.Errorf("%s: %s = %v %q", w.name, name, v.Value, v.Unit)
			}
		}

		tst, tl, err := traced(ctx, e, w, 3, 1, 1, 0)
		if err != nil {
			t.Fatalf("%s: traced run: %v", w.name, err)
		}
		if tl.failed != 0 {
			t.Errorf("%s: traced run: %d of %d operations failed: %v", w.name, tl.failed, tl.attempted, tl.firstErr)
		}
		layers, err := selectMetrics(bf.PerLayer, tst)
		if err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for name, v := range layers {
			if v.Unit != units[name] || math.IsNaN(v.Value) {
				t.Errorf("%s: %s = %v %q", w.name, name, v.Value, v.Unit)
			}
		}
		// Nothing is measured that BENCHMARK.json does not name.
		for name := range tst {
			if _, ok := units[name]; !ok {
				t.Errorf("%s: %s is emitted but not in BENCHMARK.json", w.name, name)
			}
		}

		raw, err := os.ReadFile(filepath.Join(e.outDir, w.name+".trace.json"))
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		var tr struct {
			TraceEvents []struct {
				Name string `json:"name"`
				Ph   string `json:"ph"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &tr); err != nil {
			t.Fatalf("%s: trace file: %v", w.name, err)
		}
		seen := map[string]bool{}
		for _, ev := range tr.TraceEvents {
			seen[ev.Name] = true
		}
		for _, name := range []string{"client.apply", "http.roundtrip", "server.handler", "fsio.sync", "repository.ApplyKey", "core.Engine.Apply", "objectbase.Compute", "core.Query"} {
			if !seen[name] {
				t.Errorf("%s: trace has no %s span", w.name, name)
			}
		}
	}
}

// A span's self time is its duration minus its children's.
func TestSelfTimes(t *testing.T) {
	r := newRecorder()
	r.spans = []span{
		{name: "op", start: 0, end: 100, parent: -1},
		{name: "child", start: 10, end: 40, parent: 0},
		{name: "child", start: 50, end: 90, parent: 0},
		{name: "grandchild", start: 55, end: 60, parent: 2},
	}
	got := r.selfTimes()
	want := []time.Duration{30, 30, 35, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %v, want %v", i, got[i], want[i])
		}
	}
}
