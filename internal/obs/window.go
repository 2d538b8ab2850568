package obs

import (
	"fmt"
	"sync"
	"time"
)

// Window is a sliding-window view over one latency stream: observations
// land in a private histogram, and a fixed ring of timestamped snapshots
// of that histogram lets Stats diff "now" against "~a minute ago" to
// produce p50/p95/p99 and request/error rates over recent traffic rather
// than since process start. Snapshots are taken lazily on Stats calls
// (throttled to one per granule), so an idle window costs nothing and
// tests stay deterministic — there is no background ticker.
//
// A nil *Window is safe: Observe is a no-op and Stats returns zeros.
type Window struct {
	span time.Duration    // how far back the window reaches (~60s)
	gran time.Duration    // minimum spacing between stored snapshots
	now  func() time.Time // injectable clock for tests

	hist *Histogram
	errs Counter

	mu   sync.Mutex
	ring []winSnap // circular buffer, capacity span/gran+2
	head int       // index of the oldest stored snapshot
	size int       // number of valid entries
}

// winSnap is one timestamped capture of the window's histogram totals.
type winSnap struct {
	at     time.Time
	counts []int64 // per-bucket, non-cumulative; last is +Inf
	count  int64
	errs   int64
}

// WindowStats is one sliding-window reading. Percentiles are estimated
// from LatencyBuckets bounds with linear interpolation inside the bucket,
// the same way Prometheus histogram_quantile works.
type WindowStats struct {
	// WindowSeconds is the span the numbers actually cover — usually
	// close to the configured window, shorter right after startup.
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	Errors        int64   `json:"errors"`
	Rate          float64 `json:"rate"`       // requests per second
	ErrorRate     float64 `json:"error_rate"` // errors per second
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// NewWindow returns a window reaching span back in time with snapshots at
// most gran apart. Zero values default to 60s / 1s.
func NewWindow(span, gran time.Duration) *Window {
	if span <= 0 {
		span = time.Minute
	}
	if gran <= 0 {
		gran = time.Second
	}
	w := &Window{
		span: span,
		gran: gran,
		now:  time.Now,
		hist: newHistogram(LatencyBuckets, 1e9),
		ring: make([]winSnap, int(span/gran)+2),
	}
	// A zero baseline so the very first Stats call has something to diff
	// against.
	w.store(w.capture(w.now()))
	return w
}

// Observe records one request with its duration and error-ness.
func (w *Window) Observe(d time.Duration, isErr bool) {
	if w == nil {
		return
	}
	w.hist.Observe(d)
	if isErr {
		w.errs.Inc()
	}
}

// capture reads the histogram totals without locking w.mu (the histogram
// is atomic).
func (w *Window) capture(now time.Time) winSnap {
	s := winSnap{
		at:     now,
		counts: make([]int64, len(w.hist.counts)),
		count:  w.hist.Count(),
		errs:   w.errs.Value(),
	}
	for i := range w.hist.counts {
		s.counts[i] = w.hist.counts[i].Load()
	}
	return s
}

// store pushes a snapshot onto the ring, dropping the oldest when full.
// Caller holds w.mu (or is the constructor).
func (w *Window) store(s winSnap) {
	if w.size == len(w.ring) {
		w.head = (w.head + 1) % len(w.ring)
		w.size--
	}
	w.ring[(w.head+w.size)%len(w.ring)] = s
	w.size++
}

// Stats returns the current sliding-window reading, storing a fresh
// snapshot when at least one granule has passed since the last one.
func (w *Window) Stats() WindowStats {
	if w == nil {
		return WindowStats{}
	}
	now := w.now()
	cur := w.capture(now)

	w.mu.Lock()
	newest := w.ring[(w.head+w.size-1)%len(w.ring)]
	if now.Sub(newest.at) >= w.gran {
		w.store(cur)
	}
	// Evict snapshots older than the span, always keeping one as the
	// diff baseline.
	cutoff := now.Add(-w.span)
	for w.size > 1 && w.ring[w.head].at.Before(cutoff) {
		w.head = (w.head + 1) % len(w.ring)
		w.size--
	}
	base := w.ring[w.head]
	w.mu.Unlock()

	elapsed := cur.at.Sub(base.at)
	st := WindowStats{
		WindowSeconds: elapsed.Seconds(),
		Count:         cur.count - base.count,
		Errors:        cur.errs - base.errs,
	}
	if sec := elapsed.Seconds(); sec > 0.001 {
		st.Rate = float64(st.Count) / sec
		st.ErrorRate = float64(st.Errors) / sec
	}
	if st.Count > 0 {
		diff := make([]int64, len(cur.counts))
		for i := range diff {
			diff[i] = cur.counts[i] - base.counts[i]
		}
		st.P50MS = bucketQuantile(diff, st.Count, 0.50) * 1000
		st.P95MS = bucketQuantile(diff, st.Count, 0.95) * 1000
		st.P99MS = bucketQuantile(diff, st.Count, 0.99) * 1000
	}
	return st
}

// bucketQuantile estimates the q-quantile in seconds from non-cumulative
// bucket counts over LatencyBuckets (+Inf last), interpolating linearly
// within the landing bucket. Observations in +Inf report the highest
// finite bound, as histogram_quantile does.
func bucketQuantile(counts []int64, total int64, q float64) float64 {
	rank := q * float64(total)
	var cum float64
	for i, c := range counts {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			if i >= len(LatencyBuckets) {
				return LatencyBuckets[len(LatencyBuckets)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = LatencyBuckets[i-1]
			}
			upper := LatencyBuckets[i]
			return lower + (upper-lower)*((rank-cum)/float64(c))
		}
		cum = next
	}
	return LatencyBuckets[len(LatencyBuckets)-1]
}

// CheckFunc probes one aspect of node health; nil means healthy, an error
// carries the human-readable reason it is not.
type CheckFunc func() error

// CheckResult is one named probe's outcome, as served by /v1/readyz.
type CheckResult struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// Checks is a registry of named health probes. Registration order is
// preserved in Run's results so output is stable.
type Checks struct {
	mu    sync.Mutex
	order []string
	fns   map[string]CheckFunc
}

// NewChecks returns an empty probe registry.
func NewChecks() *Checks {
	return &Checks{fns: make(map[string]CheckFunc)}
}

// Register adds (or replaces) the named probe.
func (c *Checks) Register(name string, fn CheckFunc) {
	if c == nil || fn == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.fns[name]; !ok {
		c.order = append(c.order, name)
	}
	c.fns[name] = fn
}

// Run executes every probe and reports each outcome plus the conjunction.
// A probe that panics is reported as failing rather than taking the
// health endpoint down with it.
func (c *Checks) Run() (results []CheckResult, ok bool) {
	if c == nil {
		return nil, true
	}
	c.mu.Lock()
	names := append([]string(nil), c.order...)
	fns := make([]CheckFunc, len(names))
	for i, n := range names {
		fns[i] = c.fns[n]
	}
	c.mu.Unlock()

	ok = true
	for i, fn := range fns {
		res := CheckResult{Name: names[i], OK: true}
		if err := runCheck(fn); err != nil {
			res.OK, res.Detail, ok = false, err.Error(), false
		}
		results = append(results, res)
	}
	return results, ok
}

func runCheck(fn CheckFunc) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("check panicked: %v", r)
		}
	}()
	return fn()
}
