package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the layer's public entry point — nothing is added inside
// the program. Spans of one scripted operation share its op id; parent is
// the id of the span that caused this one (-1 at the top).
type span struct {
	name       string
	start, end time.Duration // offsets from the recorder's epoch
	parent     int
	op         int
	tid        int // client number, the Chrome trace's thread
}

// recorder keeps spans in memory until the pass ends. A nil recorder
// records nothing, which is how the untraced passes run.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) begin(name string, parent, op, tid int) int {
	if r == nil {
		return -1
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	defer r.mu.Unlock()
	if parent >= 0 && parent < len(r.spans) {
		tid = r.spans[parent].tid // a child runs on its parent's track
	}
	r.spans = append(r.spans, span{name: name, start: now, end: -1, parent: parent, op: op, tid: tid})
	return len(r.spans) - 1
}

func (r *recorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	now := time.Since(r.epoch)
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
}

// timed records fn as a child span and returns its duration.
func (r *recorder) timed(name string, parent, op int, fn func()) time.Duration {
	id := r.begin(name, parent, op, 0)
	start := time.Now()
	fn()
	d := time.Since(start)
	r.end(id)
	return d
}

// selfTimes returns, per span, its duration minus the part of it its
// direct children cover.
func (r *recorder) selfTimes() []time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make([]time.Duration, len(r.spans))
	for i, s := range r.spans {
		self[i] = s.end - s.start
	}
	for _, s := range r.spans {
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	return self
}

// tracePass names one recorder in the trace file; each becomes a process
// in the Chrome trace.
type tracePass struct {
	name string
	rec  *recorder
}

// writeChrome writes the passes' spans as Chrome trace_event JSON (load it
// in chrome://tracing or Perfetto). Each span is a complete ("X") event;
// args carry the op id, the parent span and the self time.
func writeChrome(path string, passes []tracePass) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var events []event
	for pid, p := range passes {
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": p.name}})
		self := p.rec.selfTimes()
		p.rec.mu.Lock()
		for i, s := range p.rec.spans {
			if s.end < 0 {
				continue
			}
			events = append(events, event{
				Name: s.name, Ph: "X", TS: us(s.start), Dur: us(s.end - s.start), PID: pid, TID: s.tid,
				Args: map[string]any{"op": s.op, "span": i, "parent": s.parent, "self_us": us(self[i])},
			})
		}
		p.rec.mu.Unlock()
	}
	out, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// ---- carrying the span across the HTTP boundary --------------------------

type spanKey struct{}

type spanRef struct{ op, span int }

func withSpan(ctx context.Context, op, span int) context.Context {
	return context.WithValue(ctx, spanKey{}, spanRef{op, span})
}

const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// tracedTransport is the client side of the boundary: it times the round
// trip as a child of the client span in the request's context and names
// that span to the server in two headers.
type tracedTransport struct {
	next http.RoundTripper
	rec  *recorder
}

func (t tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	ref, ok := req.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return t.next.RoundTrip(req)
	}
	id := t.rec.begin("http.roundtrip", ref.span, ref.op, 0)
	req = req.Clone(req.Context())
	req.Header.Set(headerOp, strconv.Itoa(ref.op))
	req.Header.Set(headerSpan, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(req)
	t.rec.end(id)
	return resp, err
}

// handlerStat is what the server-side wrapper saw of one operation.
type handlerStat struct {
	dur   time.Duration
	bytes int
}

// tracedHandler is the server side: it times the whole handler from
// outside, counts response bytes and parents its span on the client's.
// While an apply is inside the handler its span id is published in
// current, which the counting filesystem uses as the parent of the file
// operations that apply causes (exact with one client; with two, a batch
// leader's writes are charged to whichever apply entered last).
type tracedHandler struct {
	next    http.Handler
	rec     *recorder
	current *atomic.Int64 // span id of the apply in flight, -1 when none

	mu    sync.Mutex
	stats map[int]handlerStat // by op id
}

type countingWriter struct {
	http.ResponseWriter
	n int
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += n
	return n, err
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	opID, err := strconv.Atoi(r.Header.Get(headerOp))
	if err != nil { // not a scripted operation (readiness poll, sampling)
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(headerSpan))
	id := h.rec.begin("server.handler", parent, opID, 0)
	isApply := r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/apply")
	if isApply {
		h.current.Store(int64(id))
	}
	cw := &countingWriter{ResponseWriter: w}
	start := time.Now()
	h.next.ServeHTTP(cw, r)
	d := time.Since(start)
	if isApply {
		h.current.CompareAndSwap(int64(id), -1)
	}
	h.rec.end(id)
	h.mu.Lock()
	h.stats[opID] = handlerStat{dur: d, bytes: cw.n}
	h.mu.Unlock()
}
