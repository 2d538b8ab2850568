package server

import (
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"
)

// applyTraceResponse mirrors the trace fields of the apply response.
type applyTraceResponse struct {
	Fired   int          `json:"fired"`
	Timings applyTimings `json:"timings"`
	Trace   *struct {
		ID    string         `json:"id"`
		Name  string         `json:"name"`
		DurUS int64          `json:"dur_us"`
		Meta  map[string]any `json:"meta"`
		Root  *spanJSON      `json:"root"`
	} `json:"trace"`
	Rules []struct {
		Rule       string `json:"rule"`
		Stratum    int    `json:"stratum"`
		Fired      int    `json:"fired"`
		Emitted    int    `json:"emitted"`
		Matched    int    `json:"matched"`
		Iterations int    `json:"iterations"`
		TimeUS     int64  `json:"time_us"`
	} `json:"rules"`
}

type spanJSON struct {
	Name     string      `json:"name"`
	DurUS    int64       `json:"dur_us"`
	Children []*spanJSON `json:"children"`
}

// TestApplyTraced: POST /v1/t/{tenant}/apply?trace=1 returns the span tree
// and the per-rule hot list, whose fired counts sum to the response's
// fired total.
func TestApplyTraced(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/t/default/apply?trace=1", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	var ar applyTraceResponse
	if err := json.Unmarshal([]byte(body), &ar); err != nil {
		t.Fatalf("apply body: %v\n%s", err, body)
	}
	if ar.Trace == nil || ar.Trace.Root == nil {
		t.Fatalf("no trace in response: %s", body)
	}
	if len(ar.Trace.ID) != 32 {
		t.Errorf("trace id = %q, want 32 hex", ar.Trace.ID)
	}
	if ar.Trace.Meta["request_id"] == "" || ar.Trace.Meta["outcome"] != "ok" {
		t.Errorf("trace meta = %v", ar.Trace.Meta)
	}
	// The advertised hierarchy: parse, safety, stratify, stratum..., copy,
	// constraints, commit under the root; rules under iterations.
	kinds := map[string]int{}
	var walk func(s *spanJSON)
	walk = func(s *spanJSON) {
		kinds[strings.SplitN(s.Name, " ", 2)[0]]++
		for _, c := range s.Children {
			walk(c)
		}
	}
	walk(ar.Trace.Root)
	for _, k := range []string{"parse", "safety", "stratify", "stratum", "iteration", "rule", "copy", "constraints", "commit", "encode", "wait"} {
		if kinds[k] == 0 {
			t.Errorf("trace has no %s span: %v", k, kinds)
		}
	}
	// Each stage's span and its timings field are the same two clock
	// readings: the top-level spans, and encode and wait under commit.
	tm := ar.Timings
	want := map[string]int64{"parse": tm.ParseUS, "queue": tm.QueueUS, "safety": tm.SafetyUS,
		"stratify": tm.StratifyUS, "copy": tm.CopyUS, "constraints": tm.ConstraintsUS,
		"commit": tm.CommitUS, "encode": tm.EncodeUS, "wait": tm.CommitWaitUS}
	for i, us := range tm.StrataUS {
		want["stratum "+strconv.Itoa(i+1)] = us
	}
	stages := ar.Trace.Root.Children
	for _, s := range stages {
		if s.Name == "commit" {
			stages = append(stages, s.Children...)
		}
	}
	for _, s := range stages {
		us, ok := want[s.Name]
		if !ok {
			t.Errorf("top-level span %s has no timings field", s.Name)
		} else if s.DurUS != us {
			t.Errorf("span %s took %d µs, its timings field %d µs", s.Name, s.DurUS, us)
		}
		delete(want, s.Name)
	}
	if len(want) != 0 || len(tm.StrataUS) != 3 {
		t.Errorf("timings %+v without a span: %v", tm, want)
	}
	// Hot list: one entry per rule, fired sums to the run's fired count.
	if len(ar.Rules) != 4 {
		t.Fatalf("rules = %+v, want 4 entries", ar.Rules)
	}
	sum := 0
	for _, rs := range ar.Rules {
		sum += rs.Fired
	}
	if sum != ar.Fired {
		t.Errorf("per-rule fired sums to %d, want %d", sum, ar.Fired)
	}

	// An untraced apply carries neither field.
	code, body = post(t, ts.URL+"/v1/t/default/apply", "ins[phil].note -> checked <- phil.isa -> empl.")
	if code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	if strings.Contains(body, `"trace"`) || strings.Contains(body, `"rules"`) {
		t.Errorf("untraced apply leaked trace fields: %s", body)
	}
}

// TestTraceRingEndpoint: /v1/debug/traces lists retained traces newest
// first, serves one by id, and exports Chrome trace_event JSON.
func TestTraceRingEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	// An untraced apply must not enter the ring.
	post(t, ts.URL+"/v1/t/default/apply", "ins[phil].note -> zero <- phil.isa -> empl.")
	post(t, ts.URL+"/v1/t/default/apply?trace=1", "ins[phil].note -> one <- phil.isa -> empl.")
	post(t, ts.URL+"/v1/t/default/apply?trace=true", "ins[phil].note -> two <- phil.isa -> empl.")

	code, body := get(t, ts.URL+"/v1/debug/traces")
	if code != 200 {
		t.Fatalf("traces: %d %s", code, body)
	}
	var list struct {
		Total   int64 `json:"total"`
		Entries []struct {
			ID        string  `json:"id"`
			Name      string  `json:"name"`
			Spans     int     `json:"spans"`
			Duration  float64 `json:"duration_ms"`
			RequestID string  `json:"request_id"`
			Outcome   string  `json:"outcome"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &list); err != nil {
		t.Fatalf("traces body: %v\n%s", err, body)
	}
	if list.Total != 2 || len(list.Entries) != 2 {
		t.Fatalf("ring = %s, want exactly the two traced applies", body)
	}
	if list.Entries[0].Spans < 5 || list.Entries[0].RequestID == "" || list.Entries[0].Outcome != "ok" {
		t.Errorf("summary = %+v", list.Entries[0])
	}

	// limit=1 returns only the newest.
	code, body = get(t, ts.URL+"/v1/debug/traces?limit=1")
	var one struct {
		Entries []struct {
			ID string `json:"id"`
		} `json:"entries"`
	}
	if code != 200 || json.Unmarshal([]byte(body), &one) != nil || len(one.Entries) != 1 {
		t.Fatalf("limit=1: %d %s", code, body)
	}
	if one.Entries[0].ID != list.Entries[0].ID {
		t.Errorf("limit=1 returned %s, want newest %s", one.Entries[0].ID, list.Entries[0].ID)
	}

	// By id: the full span tree.
	code, body = get(t, ts.URL+"/v1/debug/traces?id="+list.Entries[0].ID)
	if code != 200 || !strings.Contains(body, `"root"`) || !strings.Contains(body, `"stratum 1"`) {
		t.Fatalf("trace by id: %d %s", code, body)
	}

	// Chrome export: valid trace_event JSON with complete events.
	code, body = get(t, ts.URL+"/v1/debug/traces?id="+list.Entries[0].ID+"&format=chrome")
	if code != 200 {
		t.Fatalf("chrome export: %d %s", code, body)
	}
	var chrome struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal([]byte(body), &chrome); err != nil {
		t.Fatalf("chrome export is not JSON: %v\n%s", err, body)
	}
	if chrome.DisplayTimeUnit != "ms" || len(chrome.TraceEvents) < 5 {
		t.Errorf("chrome export = %s", body)
	}

	// Unknown id: 404 envelope; bad limit: 400.
	if code, body := get(t, ts.URL+"/v1/debug/traces?id=ffffffffffffffffffffffffffffffff"); code != 404 || errCode(t, body) != "not_found" {
		t.Errorf("unknown id: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/debug/traces?limit=x"); code != 400 || errCode(t, body) != "bad_request" {
		t.Errorf("bad limit: %d %s", code, body)
	}
}

// TestTraceparentPropagation: a valid caller traceparent is adopted (same
// trace id in the response header, the request log and the trace ring); an
// invalid one is replaced with a fresh id.
func TestTraceparentPropagation(t *testing.T) {
	var buf syncBuffer
	ts, _ := newTestServer(t, WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))))

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	req, _ := http.NewRequest("POST", ts.URL+"/v1/t/default/apply?trace=1",
		strings.NewReader("ins[phil].note -> traced <- phil.isa -> empl."))
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("apply: %d %s", resp.StatusCode, body)
	}
	// Response header continues the caller's trace with a fresh span id.
	tp := resp.Header.Get("Traceparent")
	if !strings.HasPrefix(tp, "00-"+callerTrace+"-") || strings.Contains(tp, "00f067aa0ba902b7") {
		t.Errorf("response traceparent = %q, want same trace id, new span id", tp)
	}
	// The span tree is stamped with the caller's trace id.
	var ar applyTraceResponse
	if err := json.Unmarshal(body, &ar); err != nil || ar.Trace == nil {
		t.Fatalf("apply body: %v\n%s", err, body)
	}
	if ar.Trace.ID != callerTrace {
		t.Errorf("trace id = %q, want the caller's %q", ar.Trace.ID, callerTrace)
	}
	// The request log line joins on it.
	if !strings.Contains(buf.String(), `"trace_id":"`+callerTrace+`"`) {
		t.Errorf("log line missing trace id:\n%s", buf.String())
	}
	// The ring serves it by the caller's id.
	if code, _ := get(t, ts.URL+"/v1/debug/traces?id="+callerTrace); code != 200 {
		t.Errorf("trace not retrievable by caller trace id: %d", code)
	}

	// Malformed traceparent: replaced, not echoed.
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/t/default/head", nil)
	req2.Header.Set("traceparent", "garbage")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	tp2 := resp2.Header.Get("Traceparent")
	if len(tp2) != 55 || !strings.HasPrefix(tp2, "00-") {
		t.Errorf("traceparent for malformed input = %q, want a fresh valid header", tp2)
	}
}

// TestExplainVersionEndpoint: GET /v1/t/{tenant}/explain walks a fact's
// provenance chain back to the input base.
func TestExplainVersionEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	// Before any apply: 404.
	if code, body := get(t, ts.URL+"/v1/t/default/explain?vid=mod(phil)&method=sal"); code != 404 || errCode(t, body) != "not_found" {
		t.Fatalf("explain before apply: %d %s", code, body)
	}

	code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}

	// mod(phil).sal -> 4600 was produced by rule1's modify.
	code, body = get(t, ts.URL+"/v1/t/default/explain?vid=mod(phil)&method=sal")
	if code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	var ex struct {
		VID    string `json:"vid"`
		Method string `json:"method"`
		Facts  []struct {
			Fact  string `json:"fact"`
			Chain []struct {
				Fact       string `json:"fact"`
				Provenance string `json:"provenance"`
				Rule       string `json:"rule"`
				Stratum    int    `json:"stratum"`
				Update     string `json:"update"`
				CopiedFrom string `json:"copied_from"`
			} `json:"chain"`
		} `json:"facts"`
	}
	if err := json.Unmarshal([]byte(body), &ex); err != nil || len(ex.Facts) == 0 {
		t.Fatalf("explain body: %v\n%s", err, body)
	}
	found := false
	for _, f := range ex.Facts {
		if !strings.Contains(f.Fact, "4600") {
			continue
		}
		found = true
		last := f.Chain[len(f.Chain)-1]
		if last.Provenance != "update" || last.Rule != "rule1" || !strings.Contains(last.Update, "mod[phil]") {
			t.Errorf("chain for %s = %+v", f.Fact, f.Chain)
		}
	}
	if !found {
		t.Fatalf("no mod(phil).sal -> 4600 in %s", body)
	}

	// A copied fact walks back to the input: mod(phil).isa -> empl was
	// inherited from phil (input provenance at the end of the chain).
	code, body = get(t, ts.URL+"/v1/t/default/explain?vid=mod(phil)&method=isa")
	if code != 200 {
		t.Fatalf("explain isa: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &ex); err != nil {
		t.Fatal(err)
	}
	for _, f := range ex.Facts {
		if !strings.Contains(f.Fact, "empl") {
			continue
		}
		if len(f.Chain) < 2 {
			t.Fatalf("copy chain too short: %+v", f.Chain)
		}
		if f.Chain[0].Provenance != "copy" || f.Chain[0].CopiedFrom != "phil" {
			t.Errorf("first step = %+v, want copy from phil", f.Chain[0])
		}
		if last := f.Chain[len(f.Chain)-1]; last.Provenance != "input" || last.Fact != "phil.isa -> empl" {
			t.Errorf("chain end = %+v, want input provenance at phil", last)
		}
	}

	// Missing params: 400. No such fact: 404.
	if code, body := get(t, ts.URL+"/v1/t/default/explain?vid=mod(phil)"); code != 400 || errCode(t, body) != "bad_request" {
		t.Errorf("missing method: %d %s", code, body)
	} else {
		var env struct {
			Error struct{ Message string } `json:"error"`
		}
		if err := json.Unmarshal([]byte(body), &env); err != nil || !strings.Contains(env.Error.Message, "e.g. /v1/t/default/explain?vid=") {
			t.Errorf("missing method: the message %q does not cite the tenant's explain route", env.Error.Message)
		}
	}
	if code, body := get(t, ts.URL+"/v1/t/default/explain?vid=nobody&method=sal"); code != 404 || errCode(t, body) != "not_found" {
		t.Errorf("unknown fact: %d %s", code, body)
	}
}

// TestSlowLogThresholdFiltering: only requests at least as slow as the
// threshold enter the ring — an unreachably high threshold records
// nothing, a zero threshold records everything, and the trace id rides
// along on each entry.
func TestSlowLogThresholdFiltering(t *testing.T) {
	high, _ := newTestServer(t, WithSlowThreshold(time.Hour))
	get(t, high.URL+"/v1/t/default/head")
	post(t, high.URL+"/v1/t/default/apply", "ins[phil].note -> fast <- phil.isa -> empl.")
	code, body := get(t, high.URL+"/v1/debug/slow")
	var slow struct {
		ThresholdMS float64 `json:"threshold_ms"`
		Total       int64   `json:"total"`
		Entries     []struct {
			TraceID string `json:"trace_id"`
		} `json:"entries"`
	}
	if code != 200 || json.Unmarshal([]byte(body), &slow) != nil {
		t.Fatalf("slow: %d %s", code, body)
	}
	if slow.Total != 0 || len(slow.Entries) != 0 {
		t.Errorf("sub-threshold requests recorded: %s", body)
	}
	if slow.ThresholdMS != 3600*1000 {
		t.Errorf("threshold_ms = %g", slow.ThresholdMS)
	}

	all, _ := newTestServer(t, WithSlowThreshold(0))
	get(t, all.URL+"/v1/t/default/head")
	code, body = get(t, all.URL+"/v1/debug/slow")
	if code != 200 || json.Unmarshal([]byte(body), &slow) != nil {
		t.Fatalf("slow: %d %s", code, body)
	}
	if slow.Total < 1 || len(slow.Entries) < 1 {
		t.Fatalf("zero threshold recorded nothing: %s", body)
	}
	if len(slow.Entries[0].TraceID) != 32 {
		t.Errorf("slow entry trace_id = %q, want 32 hex", slow.Entries[0].TraceID)
	}
}

// TestRuntimeMetricsExposed: /metrics carries the Go runtime health gauges
// and the build-info series.
func TestRuntimeMetricsExposed(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	for _, want := range []string{
		"verlog_goroutines ", "verlog_heap_bytes ",
		"verlog_gc_pause_seconds ", "verlog_gc_runs_total ",
		`verlog_build_info{version=`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
