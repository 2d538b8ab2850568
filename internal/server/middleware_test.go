package server

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestRequestIDAssigned: every response carries an X-Request-Id, generated
// when the caller sends none.
func TestRequestIDAssigned(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/t/default/head")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	rid := resp.Header.Get("X-Request-Id")
	if len(rid) != 16 {
		t.Errorf("generated request id = %q, want 16 hex chars", rid)
	}
}

// TestRequestIDPropagated: a caller-supplied X-Request-Id is echoed on the
// response, appears in the request log, and joins the error envelope.
func TestRequestIDPropagated(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts, _ := newTestServer(t, WithLogger(logger))

	req, err := http.NewRequest("GET", ts.URL+"/v1/t/default/state?n=abc", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-trace-77")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-Id"); got != "caller-trace-77" {
		t.Errorf("response id = %q, want the caller's", got)
	}
	// The error envelope carries the id too.
	var env struct {
		Error struct {
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil || env.Error.RequestID != "caller-trace-77" {
		t.Errorf("envelope request_id = %s", body)
	}
	// The structured log line has the id, the path, and the 400 status.
	line := buf.String()
	for _, want := range []string{`"request_id":"caller-trace-77"`, `"path":"/v1/t/default/state"`, `"status":400`, `"duration"`} {
		if !strings.Contains(line, want) {
			t.Errorf("log line missing %s:\n%s", want, line)
		}
	}
	// An over-long id is replaced, not echoed.
	long := strings.Repeat("x", 200)
	req2, _ := http.NewRequest("GET", ts.URL+"/v1/t/default/head", nil)
	req2.Header.Set("X-Request-Id", long)
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got == "" || got == long {
		t.Errorf("over-long id echoed: %q", got)
	}
}

// TestValidRequestID pins the sanitization rules the middleware applies to
// caller-supplied ids (safe-to-log: printable non-space ASCII, <= 128).
func TestValidRequestID(t *testing.T) {
	for id, want := range map[string]bool{
		"caller-trace-77":        true,
		"A1.b2_c3:d4/e5":         true,
		"":                       false,
		"has space":              false,
		"newline\ninjected":      false,
		"tab\tinjected":          false,
		"utf8-héllo":             false,
		strings.Repeat("x", 128): true,
		strings.Repeat("x", 129): false,
	} {
		if got := validRequestID(id); got != want {
			t.Errorf("validRequestID(%q) = %v, want %v", id, got, want)
		}
	}
}

// TestSlowLog: with a zero threshold every request lands in
// /v1/debug/slow, newest first, carrying the request id and a body detail.
func TestSlowLog(t *testing.T) {
	ts, _ := newTestServer(t, WithSlowThreshold(0))

	req, _ := http.NewRequest("POST", ts.URL+"/v1/t/default/query", strings.NewReader("phil.sal -> S."))
	req.Header.Set("X-Request-Id", "slow-join-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	code, body := get(t, ts.URL+"/v1/debug/slow")
	if code != 200 {
		t.Fatalf("slow: %d %s", code, body)
	}
	var slow struct {
		ThresholdMS float64 `json:"threshold_ms"`
		Total       int64   `json:"total"`
		Entries     []struct {
			RequestID  string  `json:"request_id"`
			Method     string  `json:"method"`
			Path       string  `json:"path"`
			Status     int     `json:"status"`
			DurationMS float64 `json:"duration_ms"`
			Detail     string  `json:"detail"`
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil {
		t.Fatalf("slow body: %s (%v)", body, err)
	}
	if slow.Total < 1 || len(slow.Entries) < 1 {
		t.Fatalf("slow log empty: %s", body)
	}
	e := slow.Entries[0] // newest first: the query we just sent
	if e.RequestID != "slow-join-1" || e.Method != "POST" || e.Path != "/v1/t/default/query" || e.Status != 200 {
		t.Errorf("slow entry = %+v", e)
	}
	if !strings.Contains(e.Detail, "phil.sal") {
		t.Errorf("slow entry detail = %q, want the query text", e.Detail)
	}
}

// TestSlowLogDisabled: a negative threshold records nothing.
func TestSlowLogDisabled(t *testing.T) {
	ts, _ := newTestServer(t, WithSlowThreshold(-1))
	get(t, ts.URL+"/v1/t/default/head")
	code, body := get(t, ts.URL+"/v1/debug/slow")
	if code != 200 {
		t.Fatalf("slow: %d %s", code, body)
	}
	var slow struct {
		Total int64 `json:"total"`
	}
	if err := json.Unmarshal([]byte(body), &slow); err != nil || slow.Total != 0 {
		t.Errorf("disabled slow log recorded %d entries (%s)", slow.Total, body)
	}
}

// TestStatusCapture: the middleware sees the handler's status (metrics
// label and log line agree with the response code).
func TestStatusCapture(t *testing.T) {
	var buf syncBuffer
	ts, _ := newTestServer(t, WithLogger(slog.New(slog.NewJSONHandler(&buf, nil))))
	if code, _ := get(t, ts.URL+"/v1/nope"); code != 404 {
		t.Fatalf("want 404")
	}
	if !strings.Contains(buf.String(), `"status":404`) {
		t.Errorf("log line missing status 404:\n%s", buf.String())
	}
	// Unknown paths fold into the "other" route label.
	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if !strings.Contains(body, `verlog_http_requests_total{route="other",code="404"} 1`) {
		t.Errorf("metrics missing other/404 counter:\n%s", body)
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
