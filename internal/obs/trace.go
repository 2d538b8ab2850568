package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// Span is one timed node of a trace tree. Spans are built by one
// goroutine at a time (the evaluation pipeline is sequential between
// parallel sections; parallel sections record timings first and attach
// spans afterwards). All methods are nil-safe no-ops, so instrumented
// code can call them unconditionally and pays nothing — not even an
// allocation — when tracing is disabled.
type Span struct {
	Name string `json:"name"`
	// StartUS and DurUS are microseconds relative to the trace start, so
	// a serialized trace is self-contained and Chrome-exportable.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Attrs are ordered key-value annotations (firing counts, delta
	// sizes, rule names, ...).
	Attrs    []Attr  `json:"attrs,omitempty"`
	Children []*Span `json:"children,omitempty"`

	trace *Trace
}

// Attr is one span annotation.
type Attr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Trace is one completed (or in-flight) span tree with identity and
// metadata. The zero value is not usable; call NewTrace. A nil *Trace is
// safe to use: every method no-ops and Root returns nil.
type Trace struct {
	// ID is a 32-hex-character trace id (W3C trace-context compatible).
	ID    string    `json:"id"`
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	DurUS int64     `json:"dur_us"`
	// Meta carries out-of-band identifiers (request_id, traceparent, ...).
	Meta map[string]string `json:"meta,omitempty"`
	Root *Span             `json:"root"`
}

// NewTrace starts a trace whose root span carries the given name.
func NewTrace(name string) *Trace {
	t := &Trace{ID: NewTraceID(), Name: name, Start: time.Now()}
	t.Root = &Span{Name: name, trace: t}
	return t
}

// SetMeta attaches one metadata key to the trace.
func (t *Trace) SetMeta(key, value string) {
	if t == nil || value == "" {
		return
	}
	if t.Meta == nil {
		t.Meta = make(map[string]string)
	}
	t.Meta[key] = value
}

// Finish ends the root span and stamps the total duration.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Root.End()
	t.DurUS = t.Root.DurUS
}

// SpanCount returns the number of spans in the tree.
func (t *Trace) SpanCount() int {
	if t == nil {
		return 0
	}
	return t.Root.count()
}

func (s *Span) count() int {
	if s == nil {
		return 0
	}
	n := 1
	for _, c := range s.Children {
		n += c.count()
	}
	return n
}

// Stage is one timed stage of a pipeline: its duration and, under a
// trace, its span come from the same two clock readings, so the two
// never disagree.
type Stage struct {
	span  *Span
	start time.Time
}

// Stage opens the stage named name as a child of s, reading the clock
// once. On a nil receiver the stage is timed all the same and opens no
// span: it allocates nothing.
func (s *Span) Stage(name string) Stage {
	now := time.Now()
	return Stage{span: s.AddChild(name, now, 0), start: now}
}

// End reads the clock once, closes the stage's span with that reading and
// returns the stage's duration, which the span holds in microseconds.
func (st Stage) End() time.Duration {
	d := time.Since(st.start)
	if st.span != nil {
		st.span.DurUS = d.Microseconds()
	}
	return d
}

// Span returns the stage's span, nil when untraced.
func (st Stage) Span() *Span { return st.span }

// AddChild attaches a child with an explicit start and duration —
// measured elsewhere, e.g. on a parallel worker, or left for End to fix
// — and returns it. On a nil receiver it returns nil, so disabled tracing
// costs a nil check and nothing else.
func (s *Span) AddChild(name string, start time.Time, dur time.Duration) *Span {
	if s == nil {
		return nil
	}
	c := &Span{
		Name:    name,
		trace:   s.trace,
		StartUS: s.trace.offsetUS(start),
		DurUS:   dur.Microseconds(),
	}
	s.Children = append(s.Children, c)
	return c
}

// End closes the span, fixing its duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.DurUS = s.trace.offsetUS(time.Now()) - s.StartUS
}

// SetAttr annotates the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.Attrs = append(s.Attrs, Attr{Key: key, Value: value})
}

// SetInt annotates the span with an integer value.
func (s *Span) SetInt(key string, value int64) { s.SetAttr(key, value) }

func (t *Trace) offsetUS(at time.Time) int64 {
	if t == nil {
		return 0
	}
	return at.Sub(t.Start).Microseconds()
}

// WriteTree renders the span tree as an indented text outline:
//
//	apply 12.4ms
//	├─ parse 0.2ms
//	└─ stratum 8.1ms (stratum=1 iterations=3)
//	   └─ ...
func (t *Trace) WriteTree(w io.Writer) {
	if t == nil || t.Root == nil {
		return
	}
	fmt.Fprintf(w, "trace %s %s %s\n", t.ID, t.Name, formatUS(t.DurUS))
	writeSpan(w, t.Root, "")
}

func writeSpan(w io.Writer, s *Span, prefix string) {
	for i, c := range s.Children {
		branch, cont := "├─ ", "│  "
		if i == len(s.Children)-1 {
			branch, cont = "└─ ", "   "
		}
		fmt.Fprintf(w, "%s%s%s %s%s\n", prefix, branch, c.Name, formatUS(c.DurUS), formatAttrs(c.Attrs))
		writeSpan(w, c, prefix+cont)
	}
}

func formatAttrs(attrs []Attr) string {
	if len(attrs) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteString(" (")
	for i, a := range attrs {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%v", a.Key, a.Value)
	}
	b.WriteByte(')')
	return b.String()
}

func formatUS(us int64) string {
	switch {
	case us >= 1_000_000:
		return fmt.Sprintf("%.2fs", float64(us)/1e6)
	case us >= 1_000:
		return fmt.Sprintf("%.2fms", float64(us)/1e3)
	default:
		return fmt.Sprintf("%dµs", us)
	}
}

// chromeEvent is one trace_event record of the Chrome/Perfetto JSON
// format (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   int64          `json:"ts"`
	Dur  int64          `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTrace is the JSON-object form of the trace_event format, which
// both chrome://tracing and Perfetto load directly.
type chromeTrace struct {
	TraceEvents     []chromeEvent     `json:"traceEvents"`
	DisplayTimeUnit string            `json:"displayTimeUnit"`
	OtherData       map[string]string `json:"otherData,omitempty"`
}

// WriteChrome serializes the trace in Chrome trace_event JSON ("X"
// complete events, microsecond timestamps relative to the trace start),
// loadable in chrome://tracing and Perfetto.
func (t *Trace) WriteChrome(w io.Writer) error {
	if t == nil || t.Root == nil {
		return fmt.Errorf("obs: nil trace")
	}
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": "verlog"}},
		{Name: "thread_name", Ph: "M", Pid: 1, Tid: 1, Args: map[string]any{"name": t.Name}},
	}
	events = appendChrome(events, t.Root)
	other := map[string]string{"trace_id": t.ID, "start": t.Start.UTC().Format(time.RFC3339Nano)}
	for k, v := range t.Meta {
		other[k] = v
	}
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms", OtherData: other})
}

func appendChrome(events []chromeEvent, s *Span) []chromeEvent {
	ev := chromeEvent{Name: s.Name, Ph: "X", Ts: s.StartUS, Dur: s.DurUS, Pid: 1, Tid: 1}
	if len(s.Attrs) > 0 {
		ev.Args = make(map[string]any, len(s.Attrs))
		for _, a := range s.Attrs {
			ev.Args[a.Key] = a.Value
		}
	}
	events = append(events, ev)
	for _, c := range s.Children {
		events = appendChrome(events, c)
	}
	return events
}

// TraceRing is a bounded in-memory ring of the most recent completed
// traces. All methods are safe for concurrent use and nil-safe.
type TraceRing struct {
	mu     sync.Mutex
	traces []*Trace
	next   int
	full   bool
	total  int64
}

// NewTraceRing returns a ring keeping the last capacity traces (min 1).
func NewTraceRing(capacity int) *TraceRing {
	if capacity < 1 {
		capacity = 1
	}
	return &TraceRing{traces: make([]*Trace, capacity)}
}

// Add records one trace, evicting the oldest when full.
func (r *TraceRing) Add(t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces[r.next] = t
	r.next++
	r.total++
	if r.next == len(r.traces) {
		r.next, r.full = 0, true
	}
}

// Traces returns the retained traces, newest first.
func (r *TraceRing) Traces() []*Trace {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.traces)
	}
	out := make([]*Trace, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.traces)
		}
		out = append(out, r.traces[idx])
	}
	return out
}

// Get returns the retained trace with the given id, or nil.
func (r *TraceRing) Get(id string) *Trace {
	for _, t := range r.Traces() {
		if t.ID == id {
			return t
		}
	}
	return nil
}

// Total returns how many traces were ever added (including evicted ones).
func (r *TraceRing) Total() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// NewTraceID returns 32 random hex characters (a W3C trace-id).
func NewTraceID() string { return randHex(16) }

// NewSpanID returns 16 random hex characters (a W3C parent-id).
func NewSpanID() string { return randHex(8) }

func randHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		// Never in practice; a fixed id beats none.
		return strings.Repeat("0", 2*n-1) + "1"
	}
	return hex.EncodeToString(b)
}

// ParseTraceparent splits a W3C trace-context traceparent header
// ("00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>") into its
// trace and parent ids. ok is false for malformed headers and for the
// all-zero ids the spec forbids.
func ParseTraceparent(h string) (traceID, parentID string, ok bool) {
	parts := strings.Split(strings.TrimSpace(h), "-")
	if len(parts) != 4 || len(parts[0]) != 2 || len(parts[1]) != 32 || len(parts[2]) != 16 || len(parts[3]) != 2 {
		return "", "", false
	}
	if parts[0] == "ff" { // forbidden version
		return "", "", false
	}
	for _, p := range parts[:3] {
		if !isLowerHex(p) {
			return "", "", false
		}
	}
	if !isLowerHex(parts[3]) {
		return "", "", false
	}
	if parts[1] == strings.Repeat("0", 32) || parts[2] == strings.Repeat("0", 16) {
		return "", "", false
	}
	return parts[1], parts[2], true
}

// FormatTraceparent renders a version-00 traceparent with the sampled
// flag set.
func FormatTraceparent(traceID, spanID string) string {
	return "00-" + traceID + "-" + spanID + "-01"
}

func isLowerHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}
