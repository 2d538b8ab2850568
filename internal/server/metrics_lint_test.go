package server

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/tenant"
)

// This test lints the whole /metrics exposition of a server that served
// realistic traffic — replicated, multi-tenant, with errors and unknown
// routes — so any future metric wired in sloppily (bad name, unbounded
// label, incoherent histogram) fails here rather than in a dashboard.

// promSample is one exposition line: name{labels} value.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(?:\{(.*)\})? (.+)$`)
	labelRe  = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"`)
)

// parseExposition parses a Prometheus text exposition into samples plus
// the HELP/TYPE declarations per family.
func parseExposition(t *testing.T, body string) (samples []promSample, help, typ map[string]string) {
	t.Helper()
	help, typ = map[string]string{}, map[string]string{}
	for i, line := range strings.Split(body, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, found := strings.Cut(rest, " ")
			if !found || h == "" {
				t.Fatalf("line %d: HELP without text: %q", i+1, line)
			}
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(rest, " ")
			if kind != "counter" && kind != "gauge" && kind != "histogram" {
				t.Fatalf("line %d: unknown TYPE %q: %q", i+1, kind, line)
			}
			typ[name] = kind
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("line %d: unparseable sample: %q", i+1, line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("line %d: bad value %q: %v", i+1, m[3], err)
		}
		labels := map[string]string{}
		if m[2] != "" {
			for _, lm := range labelRe.FindAllStringSubmatch(m[2], -1) {
				labels[lm[1]] = lm[2]
			}
		}
		samples = append(samples, promSample{name: m[1], labels: labels, value: v})
	}
	return samples, help, typ
}

// familyOf strips the histogram sample suffixes back to the family name.
func familyOf(name string, typ map[string]string) string {
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suf)
		if base != name && typ[base] == "histogram" {
			return base
		}
	}
	return name
}

// seriesKey identifies one histogram series independent of the le label.
func seriesKey(s promSample) string {
	keys := make([]string, 0, len(s.labels))
	for k := range s.labels {
		if k != "le" {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%q,", k, s.labels[k])
	}
	return b.String()
}

func TestMetricsExpositionLint(t *testing.T) {
	// A server with every subsystem wired: replication (primary role),
	// multi-tenant manager, slow log recording everything.
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
	node := replication.NewNode(repo, replication.Config{FollowerTTL: time.Hour})
	mgr := tenant.NewManager(t.TempDir()+"/tenants", tenant.WithMaxOpen(2))
	t.Cleanup(mgr.Close)
	ts := httptest.NewServer(New(repo,
		WithReplication(node),
		WithTenantManager(mgr),
		WithSlowThreshold(0)))
	t.Cleanup(ts.Close)

	// Traffic: applies and queries on the default tenant and on others,
	// real tenants past the residency cap, client errors, an unknown
	// route, and far more distinct tenant names than the label cap admits.
	if code, body := post(t, ts.URL+"/v1/t/default/apply", `raise: mod[E].sal -> (S, S') <- E.sal -> S, S' = S + 1.`); code != 200 {
		t.Fatalf("default apply: %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/t/default/query", `phil.sal -> S.`); code != 200 {
		t.Fatalf("default query: %d %s", code, body)
	}
	for _, tn := range []string{"lint-a", "lint-b", "lint-c"} {
		if code, body := post(t, ts.URL+"/v1/t/"+tn+"/apply", `ins[x].kind -> widget.`); code != 200 {
			t.Fatalf("tenant %s apply: %d %s", tn, code, body)
		}
	}
	post(t, ts.URL+"/v1/t/default/apply", `this is not a program`) // 400
	post(t, ts.URL+"/v1/t/lint-a/query", `broken ->`)              // 400
	get(t, ts.URL+"/v1/no/such/route")                             // 404
	for i := 0; i < tenantLabelCap+10; i++ {                       // label-cap pressure
		get(t, ts.URL+fmt.Sprintf("/v1/t/lint-ghost-%d/head", i)) // 404s, still labeled
	}

	code, body := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d", code)
	}
	samples, help, typ := parseExposition(t, body)
	if len(samples) == 0 {
		t.Fatal("empty exposition")
	}

	nameRe := regexp.MustCompile(`^verlog_[a-z0-9_]+$`)
	buckets := map[string][]promSample{} // family+series -> bucket samples
	sums := map[string]bool{}
	counts := map[string]float64{}
	tenantValues := map[string]bool{}

	for _, s := range samples {
		fam := familyOf(s.name, typ)
		if !nameRe.MatchString(fam) {
			t.Errorf("series %q: family %q does not match ^verlog_[a-z0-9_]+$", s.name, fam)
		}
		if help[fam] == "" {
			t.Errorf("series %q: family %q has no # HELP", s.name, fam)
		}
		if typ[fam] == "" {
			t.Errorf("series %q: family %q has no # TYPE", s.name, fam)
		}
		if typ[fam] == "histogram" {
			key := fam + "|" + seriesKey(s)
			switch {
			case strings.HasSuffix(s.name, "_bucket"):
				if s.labels["le"] == "" {
					t.Errorf("bucket sample %q has no le label", s.name)
				}
				buckets[key] = append(buckets[key], s)
			case strings.HasSuffix(s.name, "_sum"):
				sums[key] = true
			case strings.HasSuffix(s.name, "_count"):
				counts[key] = s.value
			default:
				t.Errorf("histogram family %q has bare sample %q", fam, s.name)
			}
		} else if strings.HasSuffix(fam, "_total") != (typ[fam] == "counter") {
			t.Errorf("family %q: _total suffix and TYPE %q disagree", fam, typ[fam])
		}
		if v, ok := s.labels["tenant"]; ok {
			tenantValues[v] = true
		}
		// Route labels must be registered patterns, never a concrete
		// tenant path — that would make series cardinality per-tenant.
		if route, ok := s.labels["route"]; ok {
			if strings.HasPrefix(route, "/v1/t/") && !strings.HasPrefix(route, "/v1/t/{tenant}") {
				t.Errorf("series %q: route label %q leaks a concrete tenant (want /v1/t/{tenant}/...)", s.name, route)
			}
		}
	}

	// Histogram coherence: cumulative buckets nondecreasing in le order,
	// the +Inf bucket equal to _count, and a _sum present.
	for key, bs := range buckets {
		sort.Slice(bs, func(i, j int) bool { return leValue(t, bs[i]) < leValue(t, bs[j]) })
		prev := -1.0
		for _, b := range bs {
			if b.value < prev {
				t.Errorf("histogram %s: bucket le=%q value %g below previous %g", key, b.labels["le"], b.value, prev)
			}
			prev = b.value
		}
		last := bs[len(bs)-1]
		if le := last.labels["le"]; le != "+Inf" {
			t.Errorf("histogram %s: last bucket le=%q, want +Inf", key, le)
		}
		cnt, ok := counts[key]
		if !ok {
			t.Errorf("histogram %s: no _count sample", key)
		} else if last.value != cnt {
			t.Errorf("histogram %s: +Inf bucket %g != _count %g", key, last.value, cnt)
		}
		if !sums[key] {
			t.Errorf("histogram %s: no _sum sample", key)
		}
	}
	for key := range counts {
		if len(buckets[key]) == 0 {
			t.Errorf("histogram %s: _count without _bucket samples", key)
		}
	}

	// Tenant labels are bounded: more than tenantLabelCap distinct tenants
	// sent traffic, but the series space stays at the cap plus "other".
	if len(tenantValues) == 0 {
		t.Fatal("no tenant-labeled series despite tenant traffic")
	}
	if !tenantValues["other"] {
		t.Errorf("tenant label overflow not collapsed to \"other\"; values: %v", keys(tenantValues))
	}
	if len(tenantValues) > tenantLabelCap+1 {
		t.Errorf("%d distinct tenant label values, cap is %d+other", len(tenantValues), tenantLabelCap)
	}
}

func leValue(t *testing.T, s promSample) float64 {
	t.Helper()
	le := s.labels["le"]
	if le == "+Inf" {
		return 1e308
	}
	v, err := strconv.ParseFloat(le, 64)
	if err != nil {
		t.Fatalf("bad le %q: %v", le, err)
	}
	return v
}

func keys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
