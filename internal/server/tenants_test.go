package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"verlog/internal/tenant"
)

// newTenantServer is newTestServer plus a tenant manager rooted in a
// temp directory.
func newTenantServer(t *testing.T, mgrOpts []tenant.Option, opts ...Option) (*httptest.Server, *tenant.Manager) {
	t.Helper()
	mgr := tenant.NewManager(t.TempDir()+"/tenants", mgrOpts...)
	t.Cleanup(mgr.Close)
	ts, _ := newTestServer(t, append(opts, WithTenantManager(mgr))...)
	return ts, mgr
}

// send issues one request and returns its status and body.
func send(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// TestTenantIsolation: two tenants created by first write hold disjoint
// object bases; the default tenant is untouched by either.
func TestTenantIsolation(t *testing.T) {
	ts, _ := newTenantServer(t, nil)
	if code, body := post(t, ts.URL+"/v1/t/acme/apply", `ins[x].owner -> acme.`); code != 200 {
		t.Fatalf("acme apply: %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/t/globex/apply", `ins[x].owner -> globex.`); code != 200 {
		t.Fatalf("globex apply: %d %s", code, body)
	}
	code, body := get(t, ts.URL+"/v1/t/acme/head")
	if code != 200 || !strings.Contains(body, "x.owner -> acme.") || strings.Contains(body, "globex") {
		t.Fatalf("acme head: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/v1/t/globex/head")
	if code != 200 || !strings.Contains(body, "x.owner -> globex.") || strings.Contains(body, "acme") {
		t.Fatalf("globex head: %d %s", code, body)
	}
	// The default tenant still serves the seed base, with no x object.
	code, body = get(t, ts.URL+"/v1/t/default/head")
	if code != 200 || !strings.Contains(body, "phil.sal -> 4000.") || strings.Contains(body, "owner") {
		t.Fatalf("default head: %d %s", code, body)
	}
}

// TestUnprefixedRoutesAreGone: the default tenant lives at
// /v1/t/default/* only. Every (method, path) pair the unprefixed alias
// used to serve answers the 404 envelope and is labelled route="other"
// like any unknown path, and an apply sent there commits nothing.
func TestUnprefixedRoutesAreGone(t *testing.T) {
	ts, repo := newTestServer(t)
	gone := []struct{ method, path string }{
		{"GET", "/v1/head"}, {"GET", "/v1/state"}, {"GET", "/v1/log"},
		{"GET", "/v1/history"}, {"GET", "/v1/stats"},
		{"POST", "/v1/explain"}, {"GET", "/v1/explain"},
		{"GET", "/v1/constraints"}, {"POST", "/v1/constraints"},
		{"POST", "/v1/check"}, {"POST", "/v1/query"}, {"POST", "/v1/apply"},
	}
	for _, g := range gone {
		code, body := send(t, g.method, ts.URL+g.path, enterpriseUpdate)
		if code != 404 || errCode(t, body) != CodeNotFound {
			t.Errorf("%s %s: %d %s, want 404 %s", g.method, g.path, code, body, CodeNotFound)
		}
	}
	if n := repo.Len(); n != 0 {
		t.Errorf("default tenant holds %d applies; POST /v1/apply committed", n)
	}
	_, metrics := get(t, ts.URL+"/metrics")
	want := fmt.Sprintf(`verlog_http_requests_total{route="other",code="404"} %d`, len(gone))
	if !strings.Contains(metrics, want) {
		t.Errorf("/metrics lacks %s", want)
	}
}

// TestTenantErrors: the new stable error codes.
func TestTenantErrors(t *testing.T) {
	ts, _ := newTenantServer(t, nil)
	// Invalid names: bad grammar anywhere in the subtree.
	for _, path := range []string{"/v1/t/UPPER/head", "/v1/t/-dash/apply", "/v1/t/" + strings.Repeat("a", 65) + "/head"} {
		code, body := get(t, ts.URL+path)
		if code != 400 || errCode(t, body) != CodeInvalidTenant {
			t.Errorf("%s: %d %s", path, code, body)
		}
	}
	// Reads never create a tenant.
	code, body := get(t, ts.URL+"/v1/t/ghost/head")
	if code != 404 || errCode(t, body) != CodeTenantNotFound {
		t.Fatalf("missing tenant: %d %s", code, body)
	}
	if code, body = post(t, ts.URL+"/v1/t/ghost/query", `X.isa -> empl.`); code != 404 || errCode(t, body) != CodeTenantNotFound {
		t.Fatalf("query on missing tenant: %d %s", code, body)
	}
	// Unknown suffix under a valid tenant.
	if code, body = get(t, ts.URL+"/v1/t/ghost/nope"); code != 404 || errCode(t, body) != CodeNotFound {
		t.Fatalf("unknown suffix: %d %s", code, body)
	}
	// Wrong method, envelope + Allow header.
	resp, err := http.Get(ts.URL + "/v1/t/ghost/apply")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "POST" {
		t.Fatalf("GET apply: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestTenantTooMany: with a cap of 1 the pinned default tenant fills the
// residency budget, so opening any other tenant answers 429.
func TestTenantTooMany(t *testing.T) {
	ts, _ := newTenantServer(t, []tenant.Option{tenant.WithMaxOpen(1)})
	code, body := post(t, ts.URL+"/v1/t/acme/apply", `ins[x].k -> v.`)
	if code != http.StatusTooManyRequests || errCode(t, body) != CodeTooManyTenants {
		t.Fatalf("over cap: %d %s", code, body)
	}
}

// TestTenantDelete: gated by WithTenantDelete; busy/pinned map to 409.
func TestTenantDelete(t *testing.T) {
	ts, _ := newTenantServer(t, nil) // deletion NOT enabled
	post(t, ts.URL+"/v1/t/acme/apply", `ins[x].k -> v.`)
	code, body := send(t, "DELETE", ts.URL+"/v1/t/acme", "")
	if code != 403 || errCode(t, body) != CodeForbidden {
		t.Fatalf("delete disabled: %d %s", code, body)
	}

	ts2, _ := newTenantServer(t, nil, WithTenantDelete(true))
	post(t, ts2.URL+"/v1/t/acme/apply", `ins[x].k -> v.`)
	if code, body = send(t, "DELETE", ts2.URL+"/v1/t/acme", ""); code != 200 || !strings.Contains(body, `"deleted":"acme"`) {
		t.Fatalf("delete: %d %s", code, body)
	}
	if code, body = get(t, ts2.URL+"/v1/t/acme/head"); code != 404 || errCode(t, body) != CodeTenantNotFound {
		t.Fatalf("head after delete: %d %s", code, body)
	}
	// The adopted default tenant is pinned: 409 conflict.
	if code, body = send(t, "DELETE", ts2.URL+"/v1/t/default", ""); code != 409 || errCode(t, body) != CodeConflict {
		t.Fatalf("delete default: %d %s", code, body)
	}
	// GET on the bare tenant path is not a route.
	resp, err := http.Get(ts2.URL + "/v1/t/acme")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "DELETE" {
		t.Fatalf("GET bare tenant: %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

// TestTenantList: /v1/tenants reports residency and seq.
func TestTenantList(t *testing.T) {
	ts, _ := newTenantServer(t, nil)
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("t%d", i)
		if code, body := post(t, ts.URL+"/v1/t/"+name+"/apply", `ins[x].k -> v.`); code != 200 {
			t.Fatalf("apply %s: %d %s", name, code, body)
		}
	}
	code, body := get(t, ts.URL+"/v1/tenants")
	if code != 200 {
		t.Fatalf("tenants: %d %s", code, body)
	}
	var resp struct {
		Tenants []struct {
			Name     string `json:"name"`
			Resident bool   `json:"resident"`
			Seq      *int   `json:"seq"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil {
		t.Fatalf("decode: %v", err)
	}
	names := map[string]bool{}
	for _, tn := range resp.Tenants {
		names[tn.Name] = true
		if tn.Resident && tn.Seq == nil {
			t.Errorf("%s resident without seq", tn.Name)
		}
	}
	for _, want := range []string{"default", "t0", "t1", "t2"} {
		if !names[want] {
			t.Errorf("listing missing %s: %s", want, body)
		}
	}
}

// TestTenantRouteMetricLabels: tenant traffic is labeled by route
// pattern, never by concrete tenant name; the tenant label appears only
// on the dedicated bounded counter.
func TestTenantRouteMetricLabels(t *testing.T) {
	ts, _ := newTenantServer(t, nil)
	post(t, ts.URL+"/v1/t/acme/apply", `ins[x].k -> v.`)
	get(t, ts.URL+"/v1/t/acme/head")
	_, body := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `verlog_http_requests_total{route="/v1/t/{tenant}/apply",code="200"} 1`) {
		t.Errorf("metrics missing pattern-form apply route:\n%s", grepLines(body, "verlog_http_requests_total"))
	}
	if strings.Contains(body, `route="/v1/t/acme`) {
		t.Errorf("route label leaked a concrete tenant name:\n%s", grepLines(body, "acme"))
	}
	if !strings.Contains(body, `verlog_tenant_requests_total{tenant="acme"} 2`) {
		t.Errorf("tenant counter missing:\n%s", grepLines(body, "verlog_tenant_requests_total"))
	}
}

// TestTenantEvictionOverHTTP: traffic across more tenants than the cap
// keeps working — idle tenants are evicted and transparently reopened,
// with idempotency keys preserved across the eviction.
func TestTenantEvictionOverHTTP(t *testing.T) {
	ts, mgr := newTenantServer(t, []tenant.Option{tenant.WithMaxOpen(3)})
	// Round 1: seed 6 tenants (default is pinned, so pressure is real).
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		code, body := post(t, ts.URL+"/v1/t/"+name+"/apply", `ins[x].k -> v.`)
		if code != 200 {
			t.Fatalf("apply %s: %d %s", name, code, body)
		}
	}
	// Round 2: read every tenant back; evicted ones reopen from disk.
	for i := 0; i < 6; i++ {
		name := fmt.Sprintf("t%d", i)
		code, body := get(t, ts.URL+"/v1/t/"+name+"/head")
		if code != 200 || !strings.Contains(body, "x.k -> v.") {
			t.Fatalf("head %s after eviction: %d %s", name, code, body)
		}
	}
	resident, _, evictions, maxRes := mgr.Stats()
	if maxRes > 3 {
		t.Fatalf("max resident %d exceeds cap", maxRes)
	}
	if evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	if resident > 3 {
		t.Fatalf("resident %d exceeds cap", resident)
	}
}

// grepLines filters body to lines containing needle, for error messages.
func grepLines(body, needle string) string {
	var out []string
	for _, line := range strings.Split(body, "\n") {
		if strings.Contains(line, needle) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
