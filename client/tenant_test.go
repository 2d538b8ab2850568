package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/tenant"
)

// newTenantClient builds a client against a server with a real tenant
// manager (deletion enabled).
func newTenantClient(t *testing.T) *Client {
	t.Helper()
	initial, err := parser.ObjectBase(`
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	repo, err := repository.Init(t.TempDir()+"/repo", initial)
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	mgr := tenant.NewManager(t.TempDir() + "/tenants")
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(server.New(repo,
		server.WithTenantManager(mgr), server.WithTenantDelete(true)))
	t.Cleanup(ts.Close)
	return New(ts.URL)
}

// TestClientTenantScoping: a Tenant handle addresses its own namespace;
// the parent client still addresses the default tenant.
func TestClientTenantScoping(t *testing.T) {
	c := newTenantClient(t)
	ctx := context.Background()
	acme := c.Tenant("acme")

	if _, err := acme.Apply(ctx, `ins[x].owner -> acme.`); err != nil {
		t.Fatalf("tenant apply: %v", err)
	}
	head, err := acme.Head(ctx)
	if err != nil || !strings.Contains(head, "x.owner -> acme.") {
		t.Fatalf("tenant head = %q, %v", head, err)
	}
	// The default tenant never saw the write.
	head, err = c.Head(ctx)
	if err != nil || strings.Contains(head, "owner") {
		t.Fatalf("default head leaked tenant data: %q, %v", head, err)
	}
	// Idempotency keys are scoped per tenant.
	first, err := acme.ApplyWithKey(ctx, `ins[y].k -> v.`, "shared-key")
	if err != nil || first.Replayed {
		t.Fatalf("acme keyed apply = %+v, %v", first, err)
	}
	other, err := c.Tenant("globex").ApplyWithKey(ctx, `ins[y].k -> v.`, "shared-key")
	if err != nil || other.Replayed {
		t.Fatalf("same key on another tenant must execute fresh: %+v, %v", other, err)
	}
	again, err := acme.ApplyWithKey(ctx, `ins[y].k -> v.`, "shared-key")
	if err != nil || !again.Replayed {
		t.Fatalf("acme keyed retry = %+v, %v", again, err)
	}

	// Listing and deletion round-trip.
	infos, err := c.Tenants(ctx)
	if err != nil {
		t.Fatalf("Tenants: %v", err)
	}
	names := map[string]bool{}
	for _, in := range infos {
		names[in.Name] = true
	}
	if !names["default"] || !names["acme"] || !names["globex"] {
		t.Fatalf("Tenants = %+v", infos)
	}
	if err := c.DeleteTenant(ctx, "globex"); err != nil {
		t.Fatalf("DeleteTenant: %v", err)
	}
	_, err = c.Tenant("globex").Head(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "tenant_not_found" {
		t.Fatalf("head of deleted tenant = %v, want tenant_not_found", err)
	}
}

// TestClientTenantErrors: server error codes surface as APIError.
func TestClientTenantErrors(t *testing.T) {
	c := newTenantClient(t)
	ctx := context.Background()

	_, err := c.Tenant("UPPER").Head(ctx)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Code != "invalid_tenant" {
		t.Fatalf("invalid name = %v, want invalid_tenant", err)
	}
	_, err = c.Tenant("ghost").Head(ctx)
	if !errors.As(err, &apiErr) || apiErr.Code != "tenant_not_found" {
		t.Fatalf("missing tenant = %v, want tenant_not_found", err)
	}
}

// TestClientTenantRedirectCarriesPrefix: a tenant-scoped write landing on
// a follower follows the read_only redirect with the tenant prefix
// intact, and the learned primary is shared with every handle of the
// same client.
func TestClientTenantRedirectCarriesPrefix(t *testing.T) {
	var mu sync.Mutex
	var primaryPaths []string
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		primaryPaths = append(primaryPaths, r.URL.Path)
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"state":1,"fired":1}`)
	}))
	t.Cleanup(primary.Close)

	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		fmt.Fprintf(w, `{"error":{"code":"read_only","message":"follower","primary":%q}}`, primary.URL)
	}))
	t.Cleanup(follower.Close)

	c := NewMulti([]string{follower.URL}, WithRetry(2, time.Millisecond))
	acme := c.Tenant("acme")
	if _, err := acme.Apply(context.Background(), `ins[x].k -> v.`); err != nil {
		t.Fatalf("tenant apply through redirect: %v", err)
	}
	mu.Lock()
	paths := append([]string(nil), primaryPaths...)
	mu.Unlock()
	if len(paths) != 1 || paths[0] != "/v1/t/acme/apply" {
		t.Fatalf("primary saw paths %v, want exactly [/v1/t/acme/apply]", paths)
	}
	// The learned primary is shared: the parent client and a second tenant
	// handle both write straight to it.
	if got := c.writeTarget(); got != primary.URL {
		t.Errorf("parent writeTarget = %q, want learned primary %q", got, primary.URL)
	}
	if got := c.Tenant("globex").writeTarget(); got != primary.URL {
		t.Errorf("sibling handle writeTarget = %q, want learned primary %q", got, primary.URL)
	}
}

// TestClientDefaultHandleIsTenantDefault: New's handle issues repository
// calls under /v1/t/default, the same paths as Tenant("default").
func TestClientDefaultHandleIsTenantDefault(t *testing.T) {
	var mu sync.Mutex
	var paths []string
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		paths = append(paths, r.Method+" "+r.URL.Path)
		mu.Unlock()
		fmt.Fprint(w, `{"state":1,"fired":1}`)
	}))
	t.Cleanup(srv.Close)
	c := New(srv.URL, WithRetry(0, 0))
	for _, h := range []*Client{c, c.Tenant("default")} {
		if _, err := h.Apply(context.Background(), `ins[x].k -> v.`); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if want := "POST /v1/t/default/apply"; len(paths) != 2 || paths[0] != want || paths[1] != want {
		t.Fatalf("server saw %v, want [%s %s]", paths, want, want)
	}
}
