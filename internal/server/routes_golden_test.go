package server

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/tenant"

	"verlog/internal/objectbase"
)

// docRouteRow matches a markdown table row whose first cell is an HTTP
// method and whose second cell is a backquoted path, e.g.
//
//	| GET    | `/v1/t/{tenant}/state?n=N`   | ... |
var docRouteRow = regexp.MustCompile("^\\|\\s*(GET|POST|PUT|DELETE)\\s*\\|\\s*`([^`]+)`")

// docPath matches a /v1/... path named anywhere in a document; the
// query, a "[?...]" option and trailing prose fall outside the match.
// docTenant matches the tenant segment of a tenant route, whatever name
// it gives.
var (
	docPath   = regexp.MustCompile(`/v1/[A-Za-z0-9_{}/*-]*`)
	docTenant = regexp.MustCompile(`^/v1/t/[^/]+`)
)

// pathDocs are the documents whose /v1/... paths must name registered
// routes. CHANGES.md and ROADMAP.md are history and may name routes that
// are gone.
var pathDocs = []string{"README.md", "DESIGN.md", "docs/*.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// TestRoutesMatchAPIDocs is the route-inventory golden test: every
// (method, path) the server registers must appear in docs/API.md's route
// tables, and vice versa. Adding a route without documenting it — or
// documenting one that does not exist — fails here. Beyond the tables,
// every /v1/... path the documents name must resolve to a registered
// route, once a concrete tenant name reads {tenant}; a trailing /* names
// every route under it.
func TestRoutesMatchAPIDocs(t *testing.T) {
	doc, err := os.ReadFile("../../docs/API.md")
	if err != nil {
		t.Fatalf("read docs/API.md: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		m := docRouteRow.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		path := m[2]
		if i := strings.IndexByte(path, '?'); i >= 0 {
			path = path[:i] // query parameters are illustrative
		}
		documented[m[1]+" "+path] = true
	}

	repo, err := repository.Init(t.TempDir()+"/repo", objectbase.New())
	if err != nil {
		t.Fatalf("Init: %v", err)
	}
	mgr := tenant.NewManager(t.TempDir() + "/tenants")
	defer mgr.Close()
	node := replication.NewNode(repo, replication.Config{})
	srv := New(repo, WithReplication(node), WithTenantManager(mgr), WithTenantDelete(true))

	registered := map[string]bool{}
	for _, rt := range srv.inventory {
		registered[rt.Method+" "+rt.Path] = true
	}

	var missing, stale []string
	for k := range registered {
		if !documented[k] {
			missing = append(missing, k)
		}
	}
	for k := range documented {
		if !registered[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(stale)
	for _, k := range missing {
		t.Errorf("registered route not documented in docs/API.md: %s", k)
	}
	for _, k := range stale {
		t.Errorf("docs/API.md documents a route the server does not register: %s", k)
	}
	if t.Failed() {
		var all []string
		for k := range registered {
			all = append(all, k)
		}
		sort.Strings(all)
		t.Logf("registered inventory:\n%s", strings.Join(all, "\n"))
	}
	if len(registered) == 0 {
		t.Fatal("empty route inventory")
	}
	checkDocPaths(t, srv.inventory)

	// Sanity: the inventory carries the placeholder, never a literal name.
	for k := range registered {
		if strings.HasPrefix(k[strings.IndexByte(k, ' ')+1:], "/v1/t/") &&
			!strings.Contains(k, "{tenant}") {
			t.Errorf("tenant route without placeholder in inventory: %s", k)
		}
	}
}

// checkDocPaths fails for every /v1/... path named in pathDocs that no
// route in inventory answers.
func checkDocPaths(t *testing.T, inventory []route) {
	t.Helper()
	for _, pat := range pathDocs {
		files, _ := filepath.Glob("../../" + pat)
		if len(files) == 0 {
			t.Fatalf("no document matches %s", pat)
		}
		for _, f := range files {
			doc, err := os.ReadFile(f)
			if err != nil {
				t.Fatalf("read %s: %v", f, err)
			}
			for i, line := range strings.Split(string(doc), "\n") {
				for _, path := range docPath.FindAllString(line, -1) {
					path = docTenant.ReplaceAllString(path, "/v1/t/{tenant}")
					prefix, under := strings.CutSuffix(path, "/*")
					if !slices.ContainsFunc(inventory, func(rt route) bool {
						return rt.Path == path || under && strings.HasPrefix(rt.Path, prefix+"/")
					}) {
						t.Errorf("%s:%d names %s, which is no registered route", f[len("../../"):], i+1, path)
					}
				}
			}
		}
	}
}
