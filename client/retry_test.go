package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// flakyProxy fails the first n requests to each path with the given
// status, then forwards to the backend handler. It records the
// Idempotency-Key and X-Request-Id of every attempt it sees.
type flakyProxy struct {
	mu       sync.Mutex
	failures int
	status   int
	backend  http.Handler
	keys     []string
	reqIDs   []string
}

func (f *flakyProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.keys = append(f.keys, r.Header.Get("Idempotency-Key"))
	f.reqIDs = append(f.reqIDs, r.Header.Get("X-Request-Id"))
	fail := f.failures > 0
	if fail {
		f.failures--
	}
	f.mu.Unlock()
	if fail {
		http.Error(w, "unavailable", f.status)
		return
	}
	f.backend.ServeHTTP(w, r)
}

// TestClientRetriesTransientFailures: a 503 on the first attempt is
// retried, every attempt carries the same idempotency key, and the apply
// commits exactly once.
func TestClientRetriesTransientFailures(t *testing.T) {
	c0 := newClient(t)
	backendURL := c0.current()
	proxy := &flakyProxy{failures: 2, status: http.StatusServiceUnavailable,
		backend: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req, err := http.NewRequest(r.Method, backendURL+r.URL.String(), r.Body)
			if err != nil {
				http.Error(w, err.Error(), 500)
				return
			}
			req.Header = r.Header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				http.Error(w, err.Error(), 502)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		})}
	ts := httptest.NewServer(proxy)
	t.Cleanup(ts.Close)

	c := New(ts.URL, WithRetry(3, 5*time.Millisecond))
	res, err := c.Apply(context.Background(), `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`)
	if err != nil {
		t.Fatalf("Apply through flaky proxy: %v", err)
	}
	if res.Replayed {
		t.Error("first successful apply reported replayed")
	}
	if len(proxy.keys) != 3 {
		t.Fatalf("proxy saw %d attempts, want 3", len(proxy.keys))
	}
	if proxy.keys[0] == "" {
		t.Fatal("Apply sent no Idempotency-Key")
	}
	for i, k := range proxy.keys {
		if k != proxy.keys[0] {
			t.Errorf("attempt %d used key %q, want %q (retries must reuse the key)", i, k, proxy.keys[0])
		}
	}
	// All attempts of one logical request carry one X-Request-Id, so the
	// server's slow/request logs join to a single caller trace.
	if proxy.reqIDs[0] == "" {
		t.Fatal("Apply sent no X-Request-Id")
	}
	for i, id := range proxy.reqIDs {
		if id != proxy.reqIDs[0] {
			t.Errorf("attempt %d used request id %q, want %q (retries must reuse the id)", i, id, proxy.reqIDs[0])
		}
	}
	// Only one entry committed despite three attempts hitting the proxy.
	log, err := c.Log(context.Background())
	if err != nil || len(log) != 1 {
		t.Fatalf("log = %d entries, %v; want 1", len(log), err)
	}
}

// TestClientRetriedApplyIsIdempotent: retrying an apply whose response was
// lost (the request committed, then the proxy failed) replays the entry
// instead of firing it twice.
func TestClientRetriedApplyIsIdempotent(t *testing.T) {
	c := newClient(t)
	p := `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1.`
	first, err := c.ApplyWithKey(context.Background(), p, "same-key")
	if err != nil || first.Replayed {
		t.Fatalf("first apply: %+v, %v", first, err)
	}
	second, err := c.ApplyWithKey(context.Background(), p, "same-key")
	if err != nil {
		t.Fatalf("retried apply: %v", err)
	}
	if !second.Replayed {
		t.Error("retried apply was not replayed")
	}
	if second.State != first.State || second.Fired != first.Fired {
		t.Errorf("retried apply = %+v, want the original %+v", second, first)
	}
	log, err := c.Log(context.Background())
	if err != nil || len(log) != 1 {
		t.Fatalf("log = %d entries, %v; want 1", len(log), err)
	}
}

// TestClientDoesNotRetryDomainErrors: a 4xx (bad program) must fail
// immediately, not burn retries.
func TestClientDoesNotRetryDomainErrors(t *testing.T) {
	var attempts int
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		attempts++
		mu.Unlock()
		http.Error(w, `{"error":"parse error"}`, http.StatusBadRequest)
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, WithRetry(3, time.Millisecond))
	_, err := c.Apply(context.Background(), "not a program")
	if err == nil {
		t.Fatal("bad program succeeded")
	}
	if attempts != 1 {
		t.Errorf("4xx was attempted %d times, want 1", attempts)
	}
	// A body that is not the v1 envelope is the message verbatim, no code.
	var ae *APIError
	if !errors.As(err, &ae) || ae.Message != `{"error":"parse error"}` || ae.Code != "" {
		t.Errorf("non-envelope body parsed as %+v", ae)
	}
}

// TestClientDefaults: the zero-option client has a real timeout and retry
// budget, and the options override them.
func TestClientDefaults(t *testing.T) {
	c := New("http://example.invalid")
	if c.http.Timeout != DefaultTimeout {
		t.Errorf("default timeout = %v, want %v", c.http.Timeout, DefaultTimeout)
	}
	if c.retries != DefaultRetries || c.backoff != DefaultBackoff {
		t.Errorf("defaults = (%d, %v), want (%d, %v)", c.retries, c.backoff, DefaultRetries, DefaultBackoff)
	}
	c2 := New("http://example.invalid", WithTimeout(time.Second), WithRetry(0, 0))
	if c2.http.Timeout != time.Second || c2.retries != 0 {
		t.Errorf("options not applied: timeout=%v retries=%d", c2.http.Timeout, c2.retries)
	}
}

// TestClientRetryHonorsContext: a canceled context stops the retry loop
// between attempts.
func TestClientRetryHonorsContext(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "unavailable", http.StatusServiceUnavailable)
	}))
	t.Cleanup(ts.Close)
	ctx, cancel := context.WithCancel(context.Background())
	c := New(ts.URL, WithRetry(1000, time.Hour))
	done := make(chan error, 1)
	go func() {
		_, err := c.Head(ctx)
		done <- err
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Head succeeded against a 503-only server")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("retry loop did not stop on context cancellation")
	}
}
