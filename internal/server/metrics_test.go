package server

import (
	"io"
	"net/http"
	"strings"
	"testing"
)

// TestMetricsExposition drives one apply (plus an idempotent replay)
// through the server and asserts the /metrics exposition covers the
// acceptance criteria: apply latency, journal append and fsync latency,
// per-stage and per-stratum eval timings, idempotency replay hits, and the
// HTTP request counters — all with HELP/TYPE metadata.
func TestMetricsExposition(t *testing.T) {
	ts, _ := newTestServer(t)

	// One committed apply and one replay of it.
	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("POST", ts.URL+"/v1/t/default/apply", strings.NewReader(enterpriseUpdate))
		req.Header.Set("Idempotency-Key", "metrics-test-key")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("apply %d: %d", i, resp.StatusCode)
		}
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != 200 {
		t.Fatalf("metrics: %d", code)
	}

	// Counters with exact expected values.
	for _, line := range []string{
		"verlog_applies_total 1",
		"verlog_idempotency_replays_total 1",
		`verlog_http_requests_total{route="/v1/t/{tenant}/apply",code="200"} 2`,
	} {
		if !strings.Contains(body, line) {
			t.Errorf("metrics missing %q", line)
		}
	}

	// Histogram families that must exist with exactly one committed apply
	// observed.
	for _, fam := range []string{
		"verlog_apply_seconds",
		"verlog_journal_append_seconds",
		"verlog_journal_fsync_seconds",
		"verlog_journal_record_bytes",
	} {
		if !strings.Contains(body, "# TYPE "+fam+" histogram") {
			t.Errorf("metrics missing histogram %s", fam)
		}
		if !strings.Contains(body, fam+"_count 1") {
			t.Errorf("%s observed != 1 apply", fam)
		}
	}

	// Per-stage timings: every pipeline stage has one observation.
	for _, stage := range []string{"parse", "queue", "safety", "stratify", "eval", "copy", "constraints", "commit", "encode", "commit_wait", "other"} {
		want := `verlog_eval_stage_seconds_count{stage="` + stage + `"} 1`
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	// The enterprise program has 3 strata; each gets a latency observation
	// and an iteration count.
	for _, stratum := range []string{"1", "2", "3"} {
		if !strings.Contains(body, `verlog_eval_stratum_seconds_count{stratum="`+stratum+`"} 1`) {
			t.Errorf("metrics missing stratum %s latency", stratum)
		}
	}
	if !strings.Contains(body, `verlog_eval_stratum_iterations_total{stratum="1"}`) {
		t.Errorf("metrics missing stratum iteration counters")
	}

	// HTTP latency histogram and recovery gauge metadata.
	for _, meta := range []string{
		"# TYPE verlog_http_request_seconds histogram",
		"# TYPE verlog_recovery_seconds gauge",
		"# HELP verlog_applies_total",
	} {
		if !strings.Contains(body, meta) {
			t.Errorf("metrics missing %q", meta)
		}
	}

	// expvar mirror is mounted.
	code, body = get(t, ts.URL+"/debug/vars")
	if code != 200 || !strings.HasPrefix(strings.TrimSpace(body), "{") {
		t.Errorf("/debug/vars = %d %s", code, body[:min(len(body), 80)])
	}
}
