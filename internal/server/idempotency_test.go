package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func postWithKey(t *testing.T, url, body, key string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "text/plain")
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestApplyIdempotencyKey: retrying an apply with the same Idempotency-Key
// commits exactly one journal entry; the retry answers with the recorded
// result and replayed set.
func TestApplyIdempotencyKey(t *testing.T) {
	ts, repo := newTestServer(t)
	raise := `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 100.`

	code, body := postWithKey(t, ts.URL+"/v1/t/default/apply", raise, "req-42")
	if code != 200 {
		t.Fatalf("first apply: %d %s", code, body)
	}
	var first struct {
		State    int  `json:"state"`
		Fired    int  `json:"fired"`
		Replayed bool `json:"replayed"`
	}
	if err := json.Unmarshal([]byte(body), &first); err != nil || first.Replayed {
		t.Fatalf("first apply response: %s (%v)", body, err)
	}

	code, body = postWithKey(t, ts.URL+"/v1/t/default/apply", raise, "req-42")
	if code != 200 {
		t.Fatalf("retried apply: %d %s", code, body)
	}
	var second struct {
		State    int  `json:"state"`
		Fired    int  `json:"fired"`
		Replayed bool `json:"replayed"`
	}
	if err := json.Unmarshal([]byte(body), &second); err != nil {
		t.Fatalf("retried apply response: %s (%v)", body, err)
	}
	if !second.Replayed {
		t.Errorf("retry was not replayed: %s", body)
	}
	if second.State != first.State || second.Fired != first.Fired {
		t.Errorf("retry = %+v, want the original %+v", second, first)
	}

	if n := repo.Len(); n != 1 {
		t.Fatalf("journal has %d entries after a retried apply, want 1", n)
	}

	// A different key commits a second entry.
	if code, body := postWithKey(t, ts.URL+"/v1/t/default/apply", raise, "req-43"); code != 200 || strings.Contains(body, `"replayed":true`) {
		t.Fatalf("fresh key: %d %s", code, body)
	}
	if n := repo.Len(); n != 2 {
		t.Fatalf("journal has %d entries, want 2", n)
	}
}
