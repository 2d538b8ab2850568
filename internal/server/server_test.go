package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"verlog/internal/eval"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/term"
)

func newTestServer(t *testing.T, opts ...Option) (*httptest.Server, *repository.Repository) {
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
	ts := httptest.NewServer(New(repo, opts...))
	t.Cleanup(ts.Close)
	return ts, repo
}

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

func post(t *testing.T, url, body string) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(b)
}

// errCode decodes the error envelope of a non-2xx body.
func errCode(t *testing.T, body string) string {
	t.Helper()
	var env struct {
		Error struct {
			Code      string `json:"code"`
			Message   string `json:"message"`
			RequestID string `json:"request_id"`
		} `json:"error"`
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("error body is not the envelope: %q (%v)", body, err)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", body)
	}
	return env.Error.Code
}

const enterpriseUpdate = `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`

func TestServerLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)

	// Head shows the initial base, as JSON.
	code, body := get(t, ts.URL+"/v1/t/default/head")
	if code != 200 || !strings.Contains(body, "phil.sal -> 4000.") {
		t.Fatalf("head: %d %s", code, body)
	}
	var head struct {
		Facts int    `json:"facts"`
		Text  string `json:"text"`
	}
	if err := json.Unmarshal([]byte(body), &head); err != nil || head.Facts == 0 || head.Text == "" {
		t.Fatalf("head response: %s (%v)", body, err)
	}

	// Check the program.
	code, body = post(t, ts.URL+"/v1/t/default/check", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("check: %d %s", code, body)
	}
	var chk struct {
		Rules  int      `json:"rules"`
		Strata []string `json:"strata"`
	}
	if err := json.Unmarshal([]byte(body), &chk); err != nil || chk.Rules != 4 || len(chk.Strata) != 3 {
		t.Errorf("check response: %s", body)
	}

	// Apply it; the response carries per-stage timings.
	code, body = post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	var ar struct {
		State, Fired, Strata, Facts int
		Timings                     *struct {
			TotalUS  int64   `json:"total_us"`
			StrataUS []int64 `json:"strata_us"`
		} `json:"timings"`
	}
	if err := json.Unmarshal([]byte(body), &ar); err != nil || ar.State != 1 || ar.Fired != 6 {
		t.Errorf("apply response: %s", body)
	}
	if ar.Timings == nil || len(ar.Timings.StrataUS) != 3 {
		t.Errorf("apply timings missing: %s", body)
	}

	// Head now reflects the update; bob is gone.
	code, body = get(t, ts.URL+"/v1/t/default/head")
	if code != 200 || !strings.Contains(body, "phil.sal -> 4600.") || strings.Contains(body, "bob") {
		t.Errorf("head after apply: %d %s", code, body)
	}

	// Query through the server.
	code, body = post(t, ts.URL+"/v1/t/default/query", `E.isa -> hpe.`)
	if code != 200 || !strings.Contains(body, `"E":"phil"`) || !strings.Contains(body, `"rows"`) {
		t.Errorf("query: %d %s", code, body)
	}

	// Time travel.
	code, body = get(t, ts.URL+"/v1/t/default/state?n=0")
	if code != 200 || !strings.Contains(body, "bob.sal -> 4200.") {
		t.Errorf("state 0: %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/t/default/state?n=7"); code != 404 || errCode(t, body) != CodeNotFound {
		t.Errorf("state 7 = %d %s, want 404 not_found", code, body)
	}

	// Log.
	code, body = get(t, ts.URL+"/v1/t/default/log")
	if code != 200 || !strings.Contains(body, `"seq":1`) || !strings.Contains(body, `"entries"`) {
		t.Errorf("log: %d %s", code, body)
	}

	// History of the last run.
	code, body = get(t, ts.URL+"/v1/t/default/history?object=bob")
	if code != 200 || !strings.Contains(body, "del(mod(bob))") {
		t.Errorf("history: %d %s", code, body)
	}
}

func TestServerErrorEnvelope(t *testing.T) {
	ts, _ := newTestServer(t)

	// Syntax error -> 400 parse_error.
	code, body := post(t, ts.URL+"/v1/t/default/apply", "ins[X].m -> ")
	if code != 400 || errCode(t, body) != CodeParseError {
		t.Errorf("syntax error = %d %s", code, body)
	}
	// Unsafe program -> 400 unsafe_rule.
	code, body = post(t, ts.URL+"/v1/t/default/apply", "r: ins[X].m -> Y <- X.isa -> empl.")
	if code != 400 || errCode(t, body) != CodeUnsafeRule {
		t.Errorf("unsafe program = %d %s", code, body)
	}
	// Bad query -> 400 parse_error.
	code, body = post(t, ts.URL+"/v1/t/default/query", "E.sal -> ")
	if code != 400 || errCode(t, body) != CodeParseError {
		t.Errorf("bad query = %d %s", code, body)
	}
	// History before any apply -> 404 not_found.
	code, body = get(t, ts.URL+"/v1/t/default/history?object=phil")
	if code != 404 || errCode(t, body) != CodeNotFound {
		t.Errorf("history without apply = %d %s", code, body)
	}
	// Missing object param -> 400 bad_request.
	code, body = get(t, ts.URL+"/v1/t/default/history")
	if code != 400 || errCode(t, body) != CodeBadRequest {
		t.Errorf("history without object = %d %s", code, body)
	}
	// Bad state number -> 400 bad_request.
	code, body = get(t, ts.URL+"/v1/t/default/state?n=abc")
	if code != 400 || errCode(t, body) != CodeBadRequest {
		t.Errorf("bad state = %d %s", code, body)
	}
	// Empty POST body -> 400 bad_request.
	code, body = post(t, ts.URL+"/v1/t/default/apply", "   ")
	if code != 400 || errCode(t, body) != CodeBadRequest {
		t.Errorf("empty body = %d %s", code, body)
	}
	// Unknown route -> 404 envelope, not the mux's plain text.
	code, body = get(t, ts.URL+"/v1/nope")
	if code != 404 || errCode(t, body) != CodeNotFound {
		t.Errorf("unknown route = %d %s", code, body)
	}
	// Wrong method -> 405 envelope with Allow header.
	resp, err := http.Get(ts.URL + "/v1/t/default/apply")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 405 || errCode(t, string(b)) != CodeMethodNotAllowed {
		t.Errorf("GET /v1/t/default/apply = %d %s", resp.StatusCode, b)
	}
	if resp.Header.Get("Allow") != "POST" {
		t.Errorf("Allow = %q, want POST", resp.Header.Get("Allow"))
	}
}

// TestServerDiagnostics: /v1/t/{tenant}/check reports a defective program
// as a successful analysis (200, ok:false, positioned diagnostics), and
// /v1/t/{tenant}/apply rejections carry the offending position in the
// error envelope.
func TestServerDiagnostics(t *testing.T) {
	ts, _ := newTestServer(t)

	type pos struct {
		File string `json:"file"`
		Line int    `json:"line"`
		Col  int    `json:"col"`
	}
	type diag struct {
		Code     string `json:"code"`
		Severity string `json:"severity"`
		Position pos    `json:"position"`
		Rule     string `json:"rule"`
		Message  string `json:"message"`
	}
	type checkResp struct {
		Rules       int      `json:"rules"`
		OK          bool     `json:"ok"`
		Strata      []string `json:"strata"`
		Diagnostics []diag   `json:"diagnostics"`
	}

	// A defective program is still a successful check: HTTP 200 with the
	// defects as diagnostics.
	code, body := post(t, ts.URL+"/v1/t/default/check", "r1: ins[X].t -> Y <- X.t -> w.")
	if code != 200 {
		t.Fatalf("check defective = %d %s, want 200", code, body)
	}
	var cr checkResp
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatalf("check response: %q (%v)", body, err)
	}
	if cr.OK || len(cr.Diagnostics) == 0 {
		t.Fatalf("check defective: ok=%v diagnostics=%v, want ok=false with diagnostics", cr.OK, cr.Diagnostics)
	}
	d := cr.Diagnostics[0]
	if d.Code != "V0001" || d.Severity != "error" || d.Rule != "r1" {
		t.Errorf("first diagnostic = %+v, want V0001 error in rule r1", d)
	}
	if d.Position.File != "request" || d.Position.Line != 1 || d.Position.Col <= 1 {
		t.Errorf("diagnostic position = %+v, want request:1:<col>", d.Position)
	}

	// A syntax error becomes one V0007 diagnostic, still HTTP 200.
	code, body = post(t, ts.URL+"/v1/t/default/check", "r: ins[X].m -> ")
	if code != 200 {
		t.Fatalf("check unparsable = %d %s, want 200", code, body)
	}
	cr = checkResp{}
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatalf("check response: %q (%v)", body, err)
	}
	if cr.OK || len(cr.Diagnostics) != 1 || cr.Diagnostics[0].Code != "V0007" {
		t.Errorf("check unparsable: %s, want exactly one V0007", body)
	}

	// A clean program: ok:true, strata, empty (non-null) diagnostics array.
	code, body = post(t, ts.URL+"/v1/t/default/check", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("check clean = %d %s", code, body)
	}
	cr = checkResp{Diagnostics: []diag{{}}} // ensure the field is overwritten
	if err := json.Unmarshal([]byte(body), &cr); err != nil {
		t.Fatalf("check response: %q (%v)", body, err)
	}
	if !cr.OK || cr.Rules != 4 || len(cr.Strata) != 3 || len(cr.Diagnostics) != 0 {
		t.Errorf("check clean: %s", body)
	}
	if !strings.Contains(body, `"diagnostics":[]`) {
		t.Errorf("diagnostics should serialize as [], not null: %s", body)
	}

	// /v1/t/{tenant}/apply rejections point at the offending rule.
	var env struct {
		Error struct {
			Code     string `json:"code"`
			Position *pos   `json:"position"`
		} `json:"error"`
	}
	code, body = post(t, ts.URL+"/v1/t/default/apply", "ok: ins[bob].mark -> y <- bob.isa -> empl.\nbad: ins[X].m -> Y <- X.isa -> empl.")
	if code != 400 {
		t.Fatalf("apply unsafe = %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("apply error body: %q (%v)", body, err)
	}
	if env.Error.Code != CodeUnsafeRule || env.Error.Position == nil || env.Error.Position.Line != 2 || env.Error.Position.Col <= 1 {
		t.Errorf("apply unsafe envelope = %s, want unsafe_rule positioned on line 2", body)
	}

	env.Error.Position = nil
	code, body = post(t, ts.URL+"/v1/t/default/apply", "r: ins[X].m -> ")
	if code != 400 {
		t.Fatalf("apply unparsable = %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &env); err != nil {
		t.Fatalf("apply error body: %q (%v)", body, err)
	}
	if env.Error.Code != CodeParseError || env.Error.Position == nil || env.Error.Position.Line != 1 {
		t.Errorf("apply parse-error envelope = %s, want parse_error with position", body)
	}
}

// TestServerContentType: every /v1 response, success or error, is JSON.
func TestServerContentType(t *testing.T) {
	ts, _ := newTestServer(t)
	checks := []struct {
		method, path, body string
	}{
		{"GET", "/v1/t/default/head", ""},
		{"GET", "/v1/t/default/state?n=0", ""},
		{"GET", "/v1/t/default/state?n=99", ""}, // error path
		{"GET", "/v1/t/default/log", ""},
		{"GET", "/v1/t/default/stats", ""},
		{"GET", "/v1/t/default/constraints", ""},
		{"GET", "/v1/t/default/history", ""}, // error path
		{"GET", "/v1/debug/slow", ""},
		{"POST", "/v1/t/default/query", "phil.sal -> S."},
		{"POST", "/v1/t/default/check", "r: ins[x].m -> a <- x.isa -> t."},
		{"POST", "/v1/t/default/apply", "broken"}, // error path
		{"GET", "/v1/nope", ""},                   // 404 path
		{"PUT", "/v1/t/default/apply", "x"},       // 405 path
	}
	for _, c := range checks {
		req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", c.method, c.path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s %s: Content-Type = %q, want application/json", c.method, c.path, ct)
		}
	}
}

func TestServerPagination(t *testing.T) {
	ts, _ := newTestServer(t)
	raise := `r: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr, E.sal -> S, S' = S + 1.`
	for i := 0; i < 5; i++ {
		if code, body := post(t, ts.URL+"/v1/t/default/apply", raise); code != 200 {
			t.Fatalf("apply %d: %d %s", i, code, body)
		}
	}
	var page struct {
		Entries []struct {
			Seq int `json:"seq"`
		} `json:"entries"`
		NextAfter *int `json:"next_after"`
	}
	// First page of 2.
	code, body := get(t, ts.URL+"/v1/t/default/log?limit=2")
	if code != 200 {
		t.Fatalf("log: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Seq != 1 || page.NextAfter == nil || *page.NextAfter != 2 {
		t.Fatalf("page 1 = %s", body)
	}
	// Continue from the cursor.
	code, body = get(t, ts.URL+"/v1/t/default/log?limit=2&after=2")
	if code != 200 {
		t.Fatalf("log p2: %d %s", code, body)
	}
	page.NextAfter = nil
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if len(page.Entries) != 2 || page.Entries[0].Seq != 3 || page.NextAfter == nil {
		t.Fatalf("page 2 = %s", body)
	}
	// Final page has no cursor.
	code, body = get(t, ts.URL+"/v1/t/default/log?limit=2&after=4")
	page.NextAfter = nil
	if err := json.Unmarshal([]byte(body), &page); err != nil {
		t.Fatal(err)
	}
	if code != 200 || len(page.Entries) != 1 || page.NextAfter != nil {
		t.Fatalf("page 3 = %d %s", code, body)
	}
	// Bad params are envelope errors.
	if code, body := get(t, ts.URL+"/v1/t/default/log?limit=0"); code != 400 || errCode(t, body) != CodeBadRequest {
		t.Errorf("limit=0 = %d %s", code, body)
	}
	if code, body := get(t, ts.URL+"/v1/t/default/log?after=-1"); code != 400 || errCode(t, body) != CodeBadRequest {
		t.Errorf("after=-1 = %d %s", code, body)
	}

	// History pagination: the enterprise update gives bob 3 steps.
	if code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate); code != 409 && code != 200 {
		t.Fatalf("enterprise apply: %d %s", code, body)
	}
	var hist struct {
		Steps []struct {
			Version string `json:"version"`
		} `json:"steps"`
		NextAfter *int `json:"next_after"`
	}
	code, body = get(t, ts.URL+"/v1/t/default/history?object=bob&limit=2")
	if code != 200 {
		t.Fatalf("history: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatal(err)
	}
	if len(hist.Steps) != 2 || hist.NextAfter == nil || *hist.NextAfter != 2 {
		t.Fatalf("history page 1 = %s", body)
	}
	code, body = get(t, ts.URL+"/v1/t/default/history?object=bob&limit=2&after=2")
	hist.NextAfter = nil
	if err := json.Unmarshal([]byte(body), &hist); err != nil {
		t.Fatal(err)
	}
	if code != 200 || len(hist.Steps) != 1 || hist.NextAfter != nil {
		t.Fatalf("history page 2 = %d %s", code, body)
	}
}

func TestServerConstraints(t *testing.T) {
	ts, _ := newTestServer(t)

	code, body := post(t, ts.URL+"/v1/t/default/constraints", `nonneg: E.isa -> empl, E.sal -> S, S < 0.`)
	if code != 200 || !strings.Contains(body, `"installed":1`) {
		t.Fatalf("set constraints: %d %s", code, body)
	}
	code, body = get(t, ts.URL+"/v1/t/default/constraints")
	if code != 200 || !strings.Contains(body, "nonneg:") || !strings.Contains(body, `"count":1`) {
		t.Errorf("get constraints: %d %s", code, body)
	}
	// The install is state 1 of the log: no firing, an empty diff.
	code, body = get(t, ts.URL+"/v1/t/default/log")
	if want := `{"entries":[{"seq":1,"added":0,"removed":0,"fired":0,"strata":0,"program":"","constraints":"nonneg: E.isa -> empl, E.sal -> S, S < 0."}]}`; code != 200 || strings.TrimSpace(body) != want {
		t.Errorf("log = %d %s, want %s", code, body, want)
	}
	code, body = post(t, ts.URL+"/v1/t/default/explain?state=1", "phil.sal -> 4000.")
	if code != 200 || !strings.Contains(body, `"provenance":"input"`) {
		t.Errorf("explain of the install = %d %s, want the fact from the input base", code, body)
	}
	// A violating update is rejected with 409 constraint_violation and not
	// committed.
	code, body = post(t, ts.URL+"/v1/t/default/apply", `r: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S - 99999.`)
	if code != 409 || errCode(t, body) != CodeConstraintViolation {
		t.Errorf("violating apply = %d %s, want 409 constraint_violation", code, body)
	}
	code, body = get(t, ts.URL+"/v1/t/default/head")
	if code != 200 || !strings.Contains(body, "phil.sal -> 4000.") {
		t.Errorf("head changed after rejected apply: %s", body)
	}
}

func TestServerLinearityViolation(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := post(t, ts.URL+"/v1/t/default/apply", `
ra: mod[X].sal -> (S, S) <- X.isa -> empl, X.sal -> S.
rb: del[X].sal -> S <- X.isa -> empl, X.sal -> S.
`)
	if code != 422 || errCode(t, body) != CodeNotLinear {
		t.Errorf("linearity violation = %d (%s), want 422 not_linear", code, body)
	}
}

func TestServerStatsAndExplain(t *testing.T) {
	ts, _ := newTestServer(t)
	code, body := get(t, ts.URL+"/v1/t/default/stats")
	if code != 200 || !strings.Contains(body, `"objects":2`) {
		t.Fatalf("stats: %d %s", code, body)
	}
	// Explain before any apply: 404.
	if code, body := post(t, ts.URL+"/v1/t/default/explain", "phil.sal -> 4000."); code != 404 || errCode(t, body) != CodeNotFound {
		t.Errorf("explain without apply = %d %s", code, body)
	}
	if code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	code, body = post(t, ts.URL+"/v1/t/default/explain", "ins(mod(phil)).isa -> hpe. ins(mod(phil)).pos -> mgr.")
	if code != 200 {
		t.Fatalf("explain: %d %s", code, body)
	}
	var resp struct {
		Entries []struct {
			Fact, Provenance, Explanation string
		} `json:"entries"`
	}
	if err := json.Unmarshal([]byte(body), &resp); err != nil || len(resp.Entries) != 2 {
		t.Fatalf("explain body: %s (%v)", body, err)
	}
	if resp.Entries[0].Provenance != "update" || !strings.Contains(resp.Entries[0].Explanation, "rule4") {
		t.Errorf("entry 0 = %+v", resp.Entries[0])
	}
	if resp.Entries[1].Provenance != "copy" {
		t.Errorf("entry 1 = %+v", resp.Entries[1])
	}
	// Bad fact syntax: 400.
	if code, body := post(t, ts.URL+"/v1/t/default/explain", "broken ->"); code != 400 || errCode(t, body) != CodeParseError {
		t.Errorf("bad explain body = %d %s", code, body)
	}
}

// TestServerCheckDeep: ?deep=1 on /v1/t/{tenant}/check adds the semantic
// tier's Facts to the response — on the default tenant and on others —
// while a plain check keeps the old shape (no facts key).
func TestServerCheckDeep(t *testing.T) {
	ts, _ := newTenantServer(t, nil)

	type deepResp struct {
		Rules       int               `json:"rules"`
		OK          bool              `json:"ok"`
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Facts       *struct {
			Rules []struct {
				Rule     string  `json:"rule"`
				Stratum  int     `json:"stratum"`
				Cost     float64 `json:"cost"`
				Literals []struct {
					Kind string `json:"kind"`
				} `json:"literals"`
				Vars []struct {
					Var   string   `json:"var"`
					Sorts []string `json:"sorts"`
				} `json:"vars"`
			} `json:"rules"`
			Base struct {
				Supplied bool `json:"supplied"`
			} `json:"base"`
		} `json:"facts"`
	}

	// Plain check: no facts key at all.
	code, body := post(t, ts.URL+"/v1/t/default/check", enterpriseUpdate)
	if code != 200 || strings.Contains(body, `"facts"`) {
		t.Fatalf("plain check leaked facts: %d %s", code, body)
	}

	// Deep check on the default tenant.
	code, body = post(t, ts.URL+"/v1/t/default/check?deep=1", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("deep check: %d %s", code, body)
	}
	var dr deepResp
	if err := json.Unmarshal([]byte(body), &dr); err != nil {
		t.Fatalf("deep check response: %s (%v)", body, err)
	}
	if !dr.OK || dr.Rules != 4 || dr.Facts == nil || len(dr.Facts.Rules) != 4 {
		t.Fatalf("deep check facts missing: %s", body)
	}
	if !dr.Facts.Base.Supplied {
		t.Errorf("deep check should use the head base for estimates: %s", body)
	}
	r0 := dr.Facts.Rules[0]
	if r0.Rule != "rule1" || r0.Stratum != 0 || r0.Cost <= 0 || len(r0.Literals) == 0 || len(r0.Vars) == 0 {
		t.Errorf("rule1 facts incomplete: %+v", r0)
	}

	// The deep tier only adds warnings/infos: a broken program keeps
	// ok=false with facts still present for the parsed rules.
	code, body = post(t, ts.URL+"/v1/t/default/check?deep=1", "r1: ins[X].t -> Y <- X.t -> w.")
	if code != 200 {
		t.Fatalf("deep check unsafe: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &dr); err != nil || dr.OK || dr.Facts == nil {
		t.Errorf("deep check of unsafe program: %s (%v)", body, err)
	}

	// Tenant route: create the tenant by applying, then deep-check there.
	code, body = post(t, ts.URL+"/v1/t/acme/apply", "r: ins[x].m -> a <- x.exists -> x.")
	if code != 200 {
		t.Fatalf("tenant apply: %d %s", code, body)
	}
	code, body = post(t, ts.URL+"/v1/t/acme/check?deep=1", enterpriseUpdate)
	if code != 200 {
		t.Fatalf("tenant deep check: %d %s", code, body)
	}
	if err := json.Unmarshal([]byte(body), &dr); err != nil || dr.Facts == nil || len(dr.Facts.Rules) != 4 {
		t.Errorf("tenant deep check facts: %s (%v)", body, err)
	}
}

// The query response is written by hand; it must stay the document
// encoding/json makes of the rows as maps, escapes included.
func TestAppendRowsMatchesEncodingJSON(t *testing.T) {
	for _, a := range []struct {
		vars []term.Var
		rows [][]term.OID
	}{
		{},
		{rows: [][]term.OID{{}}}, // a ground query that holds: one answer, no variables
		{[]term.Var{"E", "S"}, [][]term.OID{
			{term.Sym("bob"), term.Int(4200)},
			{term.Sym("phil"), term.Num(9, 2)},
		}},
		{[]term.Var{"X"}, [][]term.OID{
			{term.Str(`a "quoted" \ <b> & -> c`)},
			{term.Str("tab\there, é, \u2028, \x7f and \xff")},
		}},
	} {
		rows := make([]map[string]string, len(a.rows))
		for i, row := range a.rows {
			rows[i] = map[string]string{}
			for j, v := range a.vars {
				rows[i][string(v)] = row[j].String()
			}
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, struct {
			Rows []map[string]string `json:"rows"`
		}{rows})
		if got, want := string(appendRows(nil, a.vars, a.rows)), rec.Body.String(); got != want {
			t.Errorf("appendRows = %s, encoding/json gives %s", got, want)
		}
	}
}

// A /query response is, byte for byte, what writeJSON makes of the answers
// as a []map[string]string (as appendRows promises), over values of every
// sort: symbols, integers, decimals and other rationals, strings that need
// escapes, and a ground query that holds and one that does not.
func TestQueryResponseMatchesWriteJSON(t *testing.T) {
	initial, err := parser.ObjectBase(`
phil.isa -> empl / sal -> 4000 / rate -> 0.5 / share -> 1r3 / note -> "says \"hi\"\tand \\ é".
bob.isa -> empl / sal -> 4200 / rate -> 1.25 / share -> 2r3 / note -> "<b> & ->".
ann.isa -> empl / sal -> -7 / rate -> 0.125 / share -> 10 / note -> "plain".
`, "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := repository.Init(t.TempDir()+"/repo", initial)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(repo))
	defer ts.Close()
	head, err := repo.Head()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`E.isa -> empl, E.sal -> S, E.rate -> R, E.share -> H.`,
		`E.note -> N.`,
		`E.sal -> S, S > 0.`,
		`phil.isa -> empl.`,
		`phil.isa -> boss.`,
		`E.isa -> nobody.`,
	} {
		body, err := parser.Query(q, "q")
		if err != nil {
			t.Fatal(err)
		}
		bindings, err := eval.Query(head, body)
		if err != nil {
			t.Fatal(err)
		}
		rows := make([]map[string]string, 0, len(bindings))
		for _, b := range bindings {
			row := map[string]string{}
			for v, o := range b {
				row[string(v)] = o.String()
			}
			rows = append(rows, row)
		}
		rec := httptest.NewRecorder()
		writeJSON(rec, struct {
			Rows []map[string]string `json:"rows"`
		}{rows})
		code, got := post(t, ts.URL+"/v1/t/default/query", q)
		if code != http.StatusOK || got != rec.Body.String() {
			t.Errorf("POST /query %s = %d %s, writeJSON gives %s", q, code, got, rec.Body.String())
		}
	}
}

// readBody reads a body of known length into a buffer of that length, and
// refuses one that declares more than the limit without reading it.
func TestReadBodyByContentLength(t *testing.T) {
	for _, c := range []struct {
		body   string
		length int64
		status int
		src    string
	}{
		{"phil.sal -> S.", -1, http.StatusOK, "phil.sal -> S."}, // chunked: no length
		{"phil.sal -> S.", 14, http.StatusOK, "phil.sal -> S."},
		{"phil.sal", 14, http.StatusBadRequest, ""}, // shorter than it says
		{"  \n", 3, http.StatusBadRequest, ""},
		{"x.", maxBodySize + 1, http.StatusRequestEntityTooLarge, ""},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/t/default/query", strings.NewReader(c.body))
		r.ContentLength = c.length
		rec := httptest.NewRecorder()
		src, ok := readBodyOr400(rec, r)
		if status := map[bool]int{true: http.StatusOK, false: rec.Code}[ok]; status != c.status || src != c.src {
			t.Errorf("%q with length %d: %d %q, want %d %q", c.body, c.length, status, src, c.status, c.src)
		}
	}
}
