// Package obs is the observability layer: zero-dependency counters,
// gauges and latency histograms backed by atomics, exposed in Prometheus
// text format and via expvar. Every layer of the system (eval, repository,
// server) reports through instruments created here; the metric names are
// the stable seam later scaling work (batching, sharding) reports through.
//
// Instruments are nil-safe: calling Inc/Add/Observe/Set on a nil instrument
// is a no-op, so packages can hold plain pointers and skip wiring checks on
// hot paths.
package obs

import (
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing counter.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (n must be non-negative for Prometheus semantics).
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can go up and down.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetDuration sets the gauge to d in seconds.
func (g *Gauge) SetDuration(d time.Duration) { g.Set(d.Seconds()) }

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// LatencyBuckets are the histogram upper bounds in seconds: 10µs to 10s,
// roughly one bucket per 2.5x. The sub-100µs bounds resolve the fast eval
// stages (parse, safety, stratify) that would otherwise collapse into one
// bucket; the top covers a long fixpoint evaluation.
var LatencyBuckets = []float64{
	0.00001, 0.000025, 0.00005,
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// SizeBuckets are the upper bounds, in bytes, of a size histogram: 64 B to
// 64 MiB, one bucket per 4x — a point update's journal record sits near the
// bottom, a bulk update's in the middle.
var SizeBuckets = []float64{
	64, 256, 1 << 10, 4 << 10, 16 << 10, 64 << 10, 256 << 10,
	1 << 20, 4 << 20, 16 << 20, 64 << 20,
}

// Histogram is a fixed-bucket histogram (its bounds plus +Inf): of
// latencies over LatencyBuckets, or of sizes in bytes over SizeBuckets.
type Histogram struct {
	bounds []float64
	per    float64        // observed units per exposed unit: 1e9 ns per second, 1 byte per byte
	counts []atomic.Int64 // per-bucket (non-cumulative); last is +Inf
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds, or bytes
}

func newHistogram(bounds []float64, per float64) *Histogram {
	return &Histogram{bounds: bounds, per: per, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration in a latency histogram.
func (h *Histogram) Observe(d time.Duration) { h.observe(int64(d)) }

// ObserveSize records one size, in bytes, in a size histogram.
func (h *Histogram) ObserveSize(bytes int64) { h.observe(bytes) }

func (h *Histogram) observe(v int64) {
	if h == nil {
		return
	}
	// SearchFloat64s finds the first bucket >= the value; observations equal
	// to a bound belong to that bucket (le is inclusive), which is what it
	// gives.
	h.counts[sort.SearchFloat64s(h.bounds, float64(v)/h.per)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns how many observations were recorded (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations of a latency histogram (0 on
// nil).
func (h *Histogram) Sum() time.Duration {
	if h == nil {
		return 0
	}
	return time.Duration(h.sum.Load())
}

// metric is an instrument registered in a family.
type metric interface{}

// family groups the series of one metric name with its help and type.
type family struct {
	name, help, typ string
	mu              sync.Mutex
	series          map[string]metric // label string -> instrument
	order           []string          // registration order of label strings
}

// Registry holds named metrics and renders them. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string

	collectorMu sync.Mutex
	collectors  []func()
}

// RegisterCollector adds a function invoked before every exposition
// (Prometheus or expvar). Collectors refresh gauges whose source of truth
// lives elsewhere — runtime memory stats, pool sizes — so the scrape sees
// current values without a background ticker. Collectors run outside the
// registry lock and may therefore use the registry freely.
func (r *Registry) RegisterCollector(fn func()) {
	if r == nil || fn == nil {
		return
	}
	r.collectorMu.Lock()
	r.collectors = append(r.collectors, fn)
	r.collectorMu.Unlock()
}

func (r *Registry) collect() {
	r.collectorMu.Lock()
	fns := append([]func(){}, r.collectors...)
	r.collectorMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// appendLabels appends the canonical `{k="v",...}` form of alternating key,
// value pairs to buf (nothing when there are none). Pairs must come in a
// fixed order per call site so repeated lookups hit the same series.
func appendLabels(buf []byte, kv []string) []byte {
	if len(kv) == 0 {
		return buf
	}
	if len(kv)%2 != 0 {
		panic("obs: odd number of label arguments")
	}
	buf = append(buf, '{')
	for i := 0; i < len(kv); i += 2 {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, kv[i]...)
		buf = append(buf, '=')
		buf = strconv.AppendQuote(buf, kv[i+1])
	}
	return append(buf, '}')
}

func (r *Registry) family(name, help, typ string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, series: make(map[string]metric)}
		r.families[name] = f
		r.order = append(r.order, name)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	}
	return f
}

// get returns the series of the label pairs, made by mk on first use. The
// key is rendered into a stack buffer, so a lookup of an existing series
// allocates nothing; only a new series copies its key.
func (f *family) get(labels []string, mk func() metric) metric {
	var buf [128]byte
	key := appendLabels(buf[:0], labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.series[string(key)]
	if !ok {
		m = mk()
		ls := string(key)
		f.series[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns (creating on first use) the counter name with the given
// alternating key, value label pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	f := r.family(name, help, "counter")
	return f.get(labels, func() metric { return &Counter{} }).(*Counter)
}

// Gauge returns (creating on first use) the gauge name with the given
// labels.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	f := r.family(name, help, "gauge")
	return f.get(labels, func() metric { return &Gauge{} }).(*Gauge)
}

// Histogram returns (creating on first use) the histogram name with the
// given labels.
func (r *Registry) Histogram(name, help string, labels ...string) *Histogram {
	f := r.family(name, help, "histogram")
	return f.get(labels, func() metric { return newHistogram(LatencyBuckets, 1e9) }).(*Histogram)
}

// SizeHistogram returns the size histogram (bytes, over SizeBuckets) for
// name and labels, creating it on first use.
func (r *Registry) SizeHistogram(name, help string, labels ...string) *Histogram {
	f := r.family(name, help, "histogram")
	return f.get(labels, func() metric { return newHistogram(SizeBuckets, 1) }).(*Histogram)
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format, families in registration order, series in creation order.
// Registered collectors run first.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.collect()
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()
	for _, f := range fams {
		f.mu.Lock()
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, ls := range f.order {
			switch m := f.series[ls].(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, ls, m.Value())
			case *Gauge:
				fmt.Fprintf(w, "%s%s %g\n", f.name, ls, m.Value())
			case *Histogram:
				writeHistogram(w, f.name, ls, m)
			}
		}
		f.mu.Unlock()
	}
}

// writeHistogram renders one histogram series: cumulative buckets, sum and
// count, merging the le label into any existing series labels.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	withLE := func(le string) string {
		if labels == "" {
			return fmt.Sprintf("{le=%q}", le)
		}
		return labels[:len(labels)-1] + fmt.Sprintf(",le=%q}", le)
	}
	var cum int64
	for i, ub := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE(formatFloat(ub)), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLE("+Inf"), cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, labels, float64(h.sum.Load())/h.per)
	fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
}

func formatFloat(f float64) string {
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", f), "0"), ".")
}

// Handler serves the registry at GET /metrics in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

// Expvar returns an expvar.Func rendering a snapshot of every series as a
// flat map (histograms appear as name_count and name_sum_seconds).
func (r *Registry) Expvar() expvar.Func {
	return func() any {
		r.collect()
		out := make(map[string]any)
		r.mu.Lock()
		fams := make([]*family, 0, len(r.families))
		for _, n := range r.order {
			fams = append(fams, r.families[n])
		}
		r.mu.Unlock()
		for _, f := range fams {
			f.mu.Lock()
			for _, ls := range f.order {
				key := f.name + ls
				switch m := f.series[ls].(type) {
				case *Counter:
					out[key] = m.Value()
				case *Gauge:
					out[key] = m.Value()
				case *Histogram:
					out[key+"_count"] = m.Count()
					out[key+"_sum_seconds"] = m.Sum().Seconds()
				}
			}
			f.mu.Unlock()
		}
		return out
	}
}

var publishMu sync.Mutex

// PublishExpvar publishes the registry under name in the process-global
// expvar namespace. Unlike expvar.Publish it is safe to call for a name
// that is already published (the existing publication wins), so tests that
// build many servers do not panic.
func PublishExpvar(name string, r *Registry) {
	publishMu.Lock()
	defer publishMu.Unlock()
	if expvar.Get(name) == nil {
		expvar.Publish(name, r.Expvar())
	}
}
