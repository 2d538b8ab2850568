package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("verlog_applies_total", "applies")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Same name+labels returns the same instrument.
	if r.Counter("verlog_applies_total", "applies") != c {
		t.Error("counter not deduplicated")
	}
	g := r.Gauge("verlog_up", "up")
	g.Set(1.5)
	if g.Value() != 1.5 {
		t.Errorf("gauge = %g", g.Value())
	}
	// Labeled series are distinct.
	a := r.Counter("verlog_http_requests_total", "reqs", "route", "/v1/apply", "code", "200")
	b := r.Counter("verlog_http_requests_total", "reqs", "route", "/v1/query", "code", "200")
	if a == b {
		t.Error("distinct label sets shared an instrument")
	}
	a.Inc()
	if b.Value() != 0 {
		t.Error("label series not independent")
	}
}

// TestLabelledLookupAllocatesNothing: a labelled series, once created, is
// found again without rendering its key on the heap, and the key is the
// canonical `{k="v",...}` form, values quoted as %q quotes them.
func TestLabelledLookupAllocatesNothing(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("verlog_http_requests_total", "reqs", "route", "/v1/t/{tenant}/apply", "code", "200")
	h := r.Histogram("verlog_http_request_seconds", "latency", "route", "/v1/t/{tenant}/apply")
	if n := testing.AllocsPerRun(100, func() {
		r.Counter("verlog_http_requests_total", "reqs", "route", "/v1/t/{tenant}/apply", "code", "200").Inc()
		r.Histogram("verlog_http_request_seconds", "latency", "route", "/v1/t/{tenant}/apply").Observe(time.Millisecond)
	}); n != 0 {
		t.Errorf("a repeated labelled lookup allocates %.0f times, want 0", n)
	}
	if c.Value() != 101 || h.Count() != 101 {
		t.Errorf("lookups reached %d and %d observations, want 101 each: a lookup made a new series", c.Value(), h.Count())
	}
	odd := "a \"b\"\n\x00é"
	r.Gauge("verlog_odd", "odd", "k", odd)
	if want := fmt.Sprintf("{k=%q}", odd); r.families["verlog_odd"].order[0] != want {
		t.Errorf("label key %s, want %s", r.families["verlog_odd"].order[0], want)
	}
}

func TestNilInstrumentsAreSafe(t *testing.T) {
	var c *Counter
	var g *Gauge
	var h *Histogram
	var l *SlowLog
	c.Inc()
	c.Add(3)
	g.Set(1)
	h.Observe(time.Second)
	l.Add(SlowEntry{})
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || len(l.Entries()) != 0 {
		t.Error("nil instruments returned non-zero values")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("verlog_apply_seconds", "apply latency")
	h.Observe(5 * time.Microsecond)  // below first bound
	h.Observe(50 * time.Microsecond) // exactly the 0.00005 bound (inclusive)
	h.Observe(3 * time.Millisecond)  // into the 0.005 bucket
	h.Observe(20 * time.Second)      // +Inf
	if h.Count() != 4 {
		t.Fatalf("count = %d", h.Count())
	}
	want := 5*time.Microsecond + 50*time.Microsecond + 3*time.Millisecond + 20*time.Second
	if h.Sum() != want {
		t.Errorf("sum = %v, want %v", h.Sum(), want)
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, line := range []string{
		`verlog_apply_seconds_bucket{le="0.00001"} 1`,
		`verlog_apply_seconds_bucket{le="0.00005"} 2`,
		`verlog_apply_seconds_bucket{le="0.0001"} 2`,
		`verlog_apply_seconds_bucket{le="0.005"} 3`,
		`verlog_apply_seconds_bucket{le="10"} 3`,
		`verlog_apply_seconds_bucket{le="+Inf"} 4`,
		`verlog_apply_seconds_count 4`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

// TestExpositionGolden pins the exposition structure for a fixed registry:
// HELP/TYPE lines and series keys are stable output, values vary.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("verlog_http_requests_total", "HTTP requests by route and status code.", "route", "/v1/apply", "code", "200").Inc()
	r.Gauge("verlog_recovery_seconds", "Duration of the last open-time recovery.").Set(0.25)
	r.Histogram("verlog_journal_fsync_seconds", "Journal fsync latency.").Observe(2 * time.Millisecond)

	var b strings.Builder
	r.WritePrometheus(&b)
	var structure []string
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if strings.HasPrefix(line, "#") {
			structure = append(structure, line)
		} else {
			structure = append(structure, strings.SplitN(line, " ", 2)[0])
		}
	}
	got := strings.Join(structure, "\n")
	want := strings.TrimSpace(`
# HELP verlog_http_requests_total HTTP requests by route and status code.
# TYPE verlog_http_requests_total counter
verlog_http_requests_total{route="/v1/apply",code="200"}
# HELP verlog_recovery_seconds Duration of the last open-time recovery.
# TYPE verlog_recovery_seconds gauge
verlog_recovery_seconds
# HELP verlog_journal_fsync_seconds Journal fsync latency.
# TYPE verlog_journal_fsync_seconds histogram
verlog_journal_fsync_seconds_bucket{le="0.00001"}
verlog_journal_fsync_seconds_bucket{le="0.000025"}
verlog_journal_fsync_seconds_bucket{le="0.00005"}
verlog_journal_fsync_seconds_bucket{le="0.0001"}
verlog_journal_fsync_seconds_bucket{le="0.00025"}
verlog_journal_fsync_seconds_bucket{le="0.0005"}
verlog_journal_fsync_seconds_bucket{le="0.001"}
verlog_journal_fsync_seconds_bucket{le="0.0025"}
verlog_journal_fsync_seconds_bucket{le="0.005"}
verlog_journal_fsync_seconds_bucket{le="0.01"}
verlog_journal_fsync_seconds_bucket{le="0.025"}
verlog_journal_fsync_seconds_bucket{le="0.05"}
verlog_journal_fsync_seconds_bucket{le="0.1"}
verlog_journal_fsync_seconds_bucket{le="0.25"}
verlog_journal_fsync_seconds_bucket{le="0.5"}
verlog_journal_fsync_seconds_bucket{le="1"}
verlog_journal_fsync_seconds_bucket{le="2.5"}
verlog_journal_fsync_seconds_bucket{le="5"}
verlog_journal_fsync_seconds_bucket{le="10"}
verlog_journal_fsync_seconds_bucket{le="+Inf"}
verlog_journal_fsync_seconds_sum
verlog_journal_fsync_seconds_count
`)
	if got != want {
		t.Errorf("exposition structure:\n%s\nwant:\n%s", got, want)
	}
}

// TestConcurrentInstruments hammers one registry from many goroutines;
// run under -race (make check) it verifies the atomics and registry locks.
func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	const workers, rounds = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				r.Counter("verlog_ops_total", "ops").Inc()
				r.Counter("verlog_ops_by_worker_total", "ops", "w", string(rune('a'+w))).Inc()
				r.Histogram("verlog_op_seconds", "op latency").Observe(time.Duration(i) * time.Microsecond)
				r.Gauge("verlog_last", "last").Set(float64(i))
				if i%500 == 0 {
					var b strings.Builder
					r.WritePrometheus(&b)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("verlog_ops_total", "ops").Value(); got != workers*rounds {
		t.Errorf("ops = %d, want %d", got, workers*rounds)
	}
	if got := r.Histogram("verlog_op_seconds", "op latency").Count(); got != workers*rounds {
		t.Errorf("histogram count = %d, want %d", got, workers*rounds)
	}
}

func TestSlowLogRing(t *testing.T) {
	l := NewSlowLog(3)
	for i := 0; i < 5; i++ {
		l.Add(SlowEntry{RequestID: string(rune('a' + i))})
	}
	got := l.Entries()
	if len(got) != 3 || got[0].RequestID != "e" || got[2].RequestID != "c" {
		t.Errorf("entries = %+v", got)
	}
	if l.Total() != 5 {
		t.Errorf("total = %d", l.Total())
	}
}

// TestSlowLogConcurrent hammers one ring from many goroutines; under
// -race (make check) it verifies the ring's locking.
func TestSlowLogConcurrent(t *testing.T) {
	l := NewSlowLog(8)
	const workers, rounds = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				l.Add(SlowEntry{RequestID: string(rune('a' + w)), Status: i})
				if i%100 == 0 {
					l.Entries()
					l.Total()
				}
			}
		}(w)
	}
	wg.Wait()
	if l.Total() != workers*rounds {
		t.Errorf("total = %d, want %d", l.Total(), workers*rounds)
	}
	if got := len(l.Entries()); got != 8 {
		t.Errorf("retained = %d, want 8", got)
	}
}

func TestRuntimeMetrics(t *testing.T) {
	r := NewRegistry()
	RegisterRuntimeMetrics(r)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, name := range []string{
		"verlog_goroutines ", "verlog_heap_bytes ",
		"verlog_gc_pause_seconds ", "verlog_gc_runs_total ",
		`verlog_build_info{version=`,
	} {
		if !strings.Contains(out, name) {
			t.Errorf("exposition missing %q:\n%s", name, out)
		}
	}
	if r.Gauge("verlog_goroutines", "Current number of goroutines.").Value() < 1 {
		t.Error("goroutine gauge not collected")
	}
	if v, c := BuildInfo(); v == "" || c == "" {
		t.Errorf("BuildInfo() = %q, %q", v, c)
	}
}

func TestExpvarSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("verlog_x_total", "x").Add(7)
	r.Histogram("verlog_y_seconds", "y").Observe(time.Second)
	snap := r.Expvar()().(map[string]any)
	if snap["verlog_x_total"] != int64(7) {
		t.Errorf("snapshot = %v", snap)
	}
	if snap["verlog_y_seconds_count"] != int64(1) {
		t.Errorf("snapshot = %v", snap)
	}
	// PublishExpvar twice must not panic.
	PublishExpvar("verlog_test_metrics", r)
	PublishExpvar("verlog_test_metrics", r)
}
