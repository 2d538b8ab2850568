// Package server exposes a journaled verlog repository over HTTP, making
// the update language usable as a small object-base server: clients POST
// update-programs and queries in the concrete syntax and receive JSON.
//
// The v1 surface is multi-tenant: every repository-scoped route lives
// under /v1/t/{tenant}/... and nowhere else, one namespace per tenant
// with its own journal, constraints and idempotency keys; server-wide
// routes (/v1/tenants, /v1/status, /v1/debug/*, /v1/repl/*, /metrics)
// take no prefix. docs/API.md is the route reference, held to the
// server's route inventory by TestRoutesMatchAPIDocs. The repository New
// is given is the "default" tenant. POST apply/constraints create a tenant
// on first use; reads of a tenant that does not exist answer 404
// tenant_not_found.
// Tenant names match [a-z0-9][a-z0-9-_]{0,63}.
//
// Every response is JSON (the /metrics exposition excepted); every error is
// the envelope {"error":{"code":"...","message":"...","request_id":"..."}}
// with a machine-readable code (see errors.go). Every request is assigned
// an X-Request-Id (the caller's, if it sends one) that appears in the
// response header, the structured request log and the slow-request log, so
// a slow server log line can be joined to a caller retry trace.
//
// Tenant repositories are opened lazily and held under an LRU residency
// cap; each performs its update transactions through its own group-commit
// pipeline, exactly as Section 2.2 treats a program as one mapping from
// old to new object base — per object base.
package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"verlog/internal/analysis"
	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/objectbase"
	"verlog/internal/obs"
	"verlog/internal/parser"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/strata"
	"verlog/internal/tenant"
	"verlog/internal/term"
)

// maxBodySize bounds request bodies (programs, queries, constraints).
const maxBodySize = 16 << 20

// Pagination bounds for the log and history routes.
const (
	defaultPageLimit = 1000
	maxPageLimit     = 10000
)

// DefaultSlowThreshold is the request latency above which a request enters
// the slow log when no WithSlowThreshold option is given.
const DefaultSlowThreshold = 250 * time.Millisecond

// slowLogCapacity bounds the in-memory slow-request ring.
const slowLogCapacity = 128

// traceRingCapacity bounds the in-memory ring of completed apply traces.
const traceRingCapacity = 64

// tenantLabelCap bounds the tenant label on request counters: the first
// tenantLabelCap distinct tenants get their own series, the long tail
// collapses to "other" so /metrics stays bounded at any tenant count.
const tenantLabelCap = 32

// DefaultReadyMaxLag and DefaultReadyMaxAge bound follower staleness for
// /v1/readyz when no WithReadyMaxLag option is given: more than 1024
// seqs behind the primary, or a last successful sync older than a
// minute, flips the node not-ready so load balancers stop routing reads
// to it.
const (
	DefaultReadyMaxLag = 1024
	DefaultReadyMaxAge = time.Minute
)

// statsWindow/statsGranularity size the sliding SLO windows /v1/status
// reports: ~the last minute, snapshotted at most once a second.
const (
	statsWindow      = 60 * time.Second
	statsGranularity = time.Second
)

// hotRuleCap bounds the cumulative per-rule stats table /v1/status
// serves; rules past the cap aggregate into one "other" row.
const hotRuleCap = 128

// Server handles HTTP requests against a set of tenant repositories.
type Server struct {
	tenants *tenant.Manager
	// def is the adopted "default" tenant — the repository New was given.
	// The replication endpoints and /v1/status serve it directly (it is
	// pinned, so no Acquire/Release is needed).
	def    *tenant.Tenant
	repl   *replication.Node // nil when replication is not configured
	mux    *http.ServeMux
	routes map[string]bool // literal registered paths, for the route metric label
	// tenantRoutes maps a route suffix ("apply", "head", ...) to its
	// per-method tenant handlers; one dispatcher under /v1/t/ serves them
	// all from this table.
	tenantRoutes map[string]tmethods
	// inventory records every (method, path-pattern) pair the server
	// answers, in registration order — the route golden test diffs it
	// against the table in docs/API.md.
	inventory []route

	allowDelete  bool
	tenantLabels *obs.BoundedLabels

	logger        *slog.Logger
	reg           *obs.Registry
	slow          *obs.SlowLog
	slowThreshold time.Duration
	traces        *obs.TraceRing

	// applySeconds observes end-to-end apply latency; stage and stratum
	// histograms aggregate eval.Stats server-side.
	applySeconds *obs.Histogram

	// Fleet observability (status.go): readiness probes, sliding-window
	// SLO readings, and the cumulative tables /v1/status serves.
	started     time.Time
	checks      *obs.Checks
	readyMaxLag int
	readyMaxAge time.Duration
	httpWin     *obs.Window
	applyWin    *obs.Window
	queryWin    *obs.Window

	// hotRules accumulates per-rule eval stats across applies (bounded;
	// the long tail collapses into one "other" row).
	hotMu    sync.Mutex
	hotRules map[string]*hotRule

	// tenantReqs indexes the per-tenant request counters by their capped
	// label so /v1/status can list totals without scraping /metrics.
	tenantReqMu sync.Mutex
	tenantReqs  map[string]*obs.Counter
}

// route is one registered (method, path-pattern) pair of the server's
// inventory; tenant routes carry the {tenant} placeholder, never a name.
type route struct {
	Method string
	Path   string
}

// Option configures a Server.
type Option func(*Server)

// WithLogger sets the structured logger for request logs (default: discard).
func WithLogger(l *slog.Logger) Option { return func(s *Server) { s.logger = l } }

// WithSlowThreshold sets the latency above which requests enter the slow
// log at /v1/debug/slow. Zero records every request; negative disables the
// log.
func WithSlowThreshold(d time.Duration) Option { return func(s *Server) { s.slowThreshold = d } }

// WithReplication attaches a replication node: the /v1/repl/* endpoints
// are served from it, and while the node is a follower every mutating
// endpoint answers 403 read_only with the primary's URL in the envelope.
func WithReplication(n *replication.Node) Option { return func(s *Server) { s.repl = n } }

// WithTenantManager attaches the tenant namespace: /v1/t/{name}/...
// routes open repositories through mgr. Without this option the server
// still serves /v1/t/default/... (the adopted repository) but knows no
// other tenants.
func WithTenantManager(mgr *tenant.Manager) Option { return func(s *Server) { s.tenants = mgr } }

// WithTenantDelete enables DELETE /v1/t/{tenant}; off by default, the
// route answers 403 forbidden.
func WithTenantDelete(allow bool) Option { return func(s *Server) { s.allowDelete = allow } }

// WithReadyMaxLag sets the follower staleness bounds /v1/readyz enforces:
// a follower more than maxSeq journal seqs behind its primary, or whose
// last successful sync is older than maxAge, reports not ready (check
// "repl_lag"). Zero disables the respective bound.
func WithReadyMaxLag(maxSeq int, maxAge time.Duration) Option {
	return func(s *Server) { s.readyMaxLag, s.readyMaxAge = maxSeq, maxAge }
}

// New returns a handler serving the repository as the "default" tenant.
func New(repo *repository.Repository, opts ...Option) *Server {
	s := &Server{
		mux:           http.NewServeMux(),
		reg:           obs.NewRegistry(),
		routes:        make(map[string]bool),
		tenantRoutes:  make(map[string]tmethods),
		tenantLabels:  obs.NewBoundedLabels(tenantLabelCap),
		logger:        slog.New(slog.NewTextHandler(io.Discard, nil)),
		slow:          obs.NewSlowLog(slowLogCapacity),
		slowThreshold: DefaultSlowThreshold,
		traces:        obs.NewTraceRing(traceRingCapacity),
		started:       time.Now(),
		checks:        obs.NewChecks(),
		readyMaxLag:   DefaultReadyMaxLag,
		readyMaxAge:   DefaultReadyMaxAge,
		httpWin:       obs.NewWindow(statsWindow, statsGranularity),
		applyWin:      obs.NewWindow(statsWindow, statsGranularity),
		queryWin:      obs.NewWindow(statsWindow, statsGranularity),
		hotRules:      make(map[string]*hotRule),
		tenantReqs:    make(map[string]*obs.Counter),
	}
	for _, o := range opts {
		o(s)
	}
	if s.tenants == nil {
		s.tenants = tenant.NewManager("")
	}
	s.def = s.tenants.Adopt("default", repo)
	s.tenants.Instrument(s.reg)
	repo.Instrument(s.reg)
	obs.RegisterRuntimeMetrics(s.reg)
	s.applySeconds = s.reg.Histogram("verlog_apply_seconds",
		"End-to-end apply latency (parse through commit).")
	s.registerChecks()

	s.tenantRoute("head", tmethods{"GET": s.handleHead})
	s.tenantRoute("state", tmethods{"GET": s.handleState})
	s.tenantRoute("log", tmethods{"GET": s.handleLog})
	s.tenantRoute("history", tmethods{"GET": s.handleHistory})
	s.tenantRoute("stats", tmethods{"GET": s.handleStats})
	s.tenantRoute("explain", tmethods{"POST": s.handleExplain, "GET": s.handleExplainVersion})
	s.tenantRoute("constraints", tmethods{"GET": s.handleGetConstraints, "POST": s.handleSetConstraints})
	s.tenantRoute("check", tmethods{"POST": s.handleCheck})
	s.tenantRoute("query", tmethods{"POST": s.handleQuery})
	s.tenantRoute("apply", tmethods{"POST": s.handleApply})
	// One dispatcher parses /v1/t/{tenant}/..., acquires the tenant and
	// serves the suffix from the table above.
	s.mux.HandleFunc("/v1/t/", s.dispatchTenant)
	s.inventory = append(s.inventory, route{"DELETE", "/v1/t/{tenant}"})
	s.route("/v1/tenants", methods{"GET": s.handleTenants})
	if s.repl != nil {
		s.route("/v1/repl/stream", methods{"GET": s.handleReplStream})
		s.route("/v1/repl/snapshot", methods{"GET": s.handleReplSnapshot})
		s.route("/v1/repl/status", methods{"GET": s.handleReplStatus})
		s.route("/v1/repl/promote", methods{"POST": s.handleReplPromote})
		s.repl.Instrument(s.reg)
	}
	s.route("/v1/healthz", methods{"GET": s.handleHealthz})
	s.route("/v1/readyz", methods{"GET": s.handleReadyz})
	s.route("/v1/status", methods{"GET": s.handleStatus})
	s.route("/v1/debug/slow", methods{"GET": s.handleSlow})
	s.route("/v1/debug/traces", methods{"GET": s.handleTraces})
	s.routes["/metrics"] = true
	s.inventory = append(s.inventory, route{"GET", "/metrics"})
	s.mux.Handle("/metrics", s.reg.Handler())
	s.routes["/debug/vars"] = true
	s.inventory = append(s.inventory, route{"GET", "/debug/vars"})
	s.mux.Handle("/debug/vars", expvar.Handler())
	// Unknown paths get the JSON envelope, not the mux's plain-text 404.
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		writeErrorCode(w, r, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("server: no such route %s", r.URL.Path))
	})
	return s
}

// methods maps an HTTP method to its handler for one path.
type methods map[string]http.HandlerFunc

// tmethods maps an HTTP method to its tenant-scoped handler: the same
// handler serves /v1/t/{tenant}/x for every tenant; which repository it
// works on rides in the first argument.
type tmethods map[string]func(*tenant.Tenant, http.ResponseWriter, *http.Request)

// allowHeader renders a deterministic Allow header for a method map.
func allowHeader[H any](m map[string]H) string {
	allow := make([]string, 0, len(m))
	for meth := range m {
		allow = append(allow, meth)
	}
	sort.Strings(allow)
	return strings.Join(allow, ", ")
}

// writeMethodNotAllowed answers a method the route at path does not serve:
// the 405 envelope, with the methods it does serve in the Allow header.
func writeMethodNotAllowed(w http.ResponseWriter, r *http.Request, path, allow string) {
	w.Header().Set("Allow", allow)
	writeErrorCode(w, r, http.StatusMethodNotAllowed, CodeMethodNotAllowed,
		fmt.Errorf("server: %s does not allow %s (allowed: %s)", path, r.Method, allow))
}

// route registers path with per-method dispatch: a request with a method
// not in m is answered with the 405 envelope and an Allow header, instead
// of the mux's bare-text default.
func (s *Server) route(path string, m methods) {
	s.routes[path] = true
	for meth := range m {
		s.inventory = append(s.inventory, route{meth, path})
	}
	allow := allowHeader(m)
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		h, ok := m[r.Method]
		if !ok {
			writeMethodNotAllowed(w, r, path, allow)
			return
		}
		h(w, r)
	})
}

// tenantRoute adds one repository-scoped route, /v1/t/{tenant}/suffix, to
// the dispatcher's table and to the inventory.
func (s *Server) tenantRoute(suffix string, m tmethods) {
	s.tenantRoutes[suffix] = m
	for _, meth := range []string{"GET", "POST", "PUT", "DELETE"} { // inventory in stable order
		if _, ok := m[meth]; ok {
			s.inventory = append(s.inventory, route{meth, "/v1/t/{tenant}/" + suffix})
		}
	}
}

// ServeHTTP implements http.Handler, wrapping the routes in the
// observability middleware.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.withObservability(s.mux).ServeHTTP(w, r)
}

// Registry returns the server's metrics registry (the seam cmd/verlog-server
// uses to publish expvar).
func (s *Server) Registry() *obs.Registry { return s.reg }

// PublishExpvar mirrors the server's metric registry into the
// process-global expvar namespace under "verlog", so GET /debug/vars
// carries the counters alongside the runtime's memstats. Safe to call
// more than once; only the first registry wins (expvar is global, so this
// is for the one long-lived server of a process, not for tests).
func PublishExpvar(s *Server) { obs.PublishExpvar("verlog", s.reg) }

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	// Program text is full of "->"; don't escape it to >.
	enc.SetEscapeHTML(false)
	enc.Encode(v)
}

// readBody reads a POST body, rejecting empty and oversized ones.
var errBodyTooLarge = fmt.Errorf("server: request body exceeds %d bytes", maxBodySize)

func readBody(r *http.Request) (string, error) {
	var b []byte
	var err error
	switch n := r.ContentLength; {
	case n > maxBodySize:
		return "", errBodyTooLarge
	case n >= 0:
		// The body is as long as it says: read it into a buffer of that
		// size, not one that grows from 512 bytes and is copied.
		b = make([]byte, n)
		_, err = io.ReadFull(r.Body, b)
	default:
		b, err = io.ReadAll(io.LimitReader(r.Body, maxBodySize+1))
	}
	if err != nil {
		return "", err
	}
	if len(b) > maxBodySize {
		return "", errBodyTooLarge
	}
	if len(bytes.TrimSpace(b)) == 0 {
		return "", errors.New("server: request body is empty")
	}
	return string(b), nil
}

// readBodyOr400 wraps readBody with the envelope responses.
func readBodyOr400(w http.ResponseWriter, r *http.Request) (string, bool) {
	src, err := readBody(r)
	if err != nil {
		if errors.Is(err, errBodyTooLarge) {
			writeErrorCode(w, r, http.StatusRequestEntityTooLarge, CodePayloadTooLarge, err)
		} else {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest, err)
		}
		return "", false
	}
	return src, true
}

// pageParams parses ?limit= and ?after= with defaults and bounds.
func pageParams(r *http.Request) (limit, after int, err error) {
	limit, after = defaultPageLimit, 0
	if v := r.URL.Query().Get("limit"); v != "" {
		limit, err = strconv.Atoi(v)
		if err != nil || limit < 1 {
			return 0, 0, fmt.Errorf("server: bad limit %q (want a positive integer)", v)
		}
		if limit > maxPageLimit {
			limit = maxPageLimit
		}
	}
	if v := r.URL.Query().Get("after"); v != "" {
		after, err = strconv.Atoi(v)
		if err != nil || after < 0 {
			return 0, 0, fmt.Errorf("server: bad after %q (want a non-negative integer)", v)
		}
	}
	return limit, after, nil
}

// baseResponse renders an object base.
type baseResponse struct {
	// State is the journal position the base corresponds to (absent on
	// head, which always reflects the newest state).
	State *int `json:"state,omitempty"`
	Facts int  `json:"facts"`
	// Text is the base in concrete text syntax.
	Text string `json:"text"`
}

func (s *Server) handleHead(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	head, err := t.Repo().Head()
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, baseResponse{Facts: head.Size(), Text: parser.FormatFacts(head, false)})
}

func (s *Server) handleState(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("server: bad state number %q", r.URL.Query().Get("n")))
		return
	}
	base, err := t.Repo().At(n)
	if err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, baseResponse{State: &n, Facts: base.Size(), Text: parser.FormatFacts(base, false)})
}

// logEntry is the journal summary row. Constraints is present on the row
// of a constraints record: the source of the set it installs; Epoch on the
// row of an epoch record: the epoch a promotion opened.
type logEntry struct {
	Seq         int     `json:"seq"`
	Added       int     `json:"added"`
	Removed     int     `json:"removed"`
	Fired       int     `json:"fired"`
	Strata      int     `json:"strata"`
	Program     string  `json:"program"`
	Constraints *string `json:"constraints,omitempty"`
	Epoch       uint64  `json:"epoch,omitempty"`
}

// logResponse is one page of the journal. NextAfter is present when more
// entries follow; pass it back as ?after= to continue.
type logResponse struct {
	Entries   []logEntry `json:"entries"`
	NextAfter *int       `json:"next_after,omitempty"`
}

func (s *Server) handleLog(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	limit, after, err := pageParams(r)
	if err != nil {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	// The resident log of the published head: wait-free, no disk I/O.
	entries := t.Repo().Log()
	resp := logResponse{Entries: []logEntry{}}
	for _, e := range entries {
		if e.Seq <= after {
			continue
		}
		if len(resp.Entries) == limit {
			next := resp.Entries[len(resp.Entries)-1].Seq
			resp.NextAfter = &next
			break
		}
		resp.Entries = append(resp.Entries, logEntry{
			Seq: e.Seq, Added: int(e.NumAdded), Removed: int(e.NumRemoved),
			Fired: e.Fired, Strata: e.Strata, Program: e.Program, Constraints: e.Constraints, Epoch: e.Epoch,
		})
	}
	writeJSON(w, resp)
}

// historyStep is the JSON rendering of one version stage.
type historyStep struct {
	Version string   `json:"version"`
	Kind    string   `json:"kind,omitempty"`
	State   []string `json:"state"`
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// historyResponse is one page of an object's version history. After counts
// steps from the start of the history (0-based offset).
type historyResponse struct {
	Object    string        `json:"object"`
	Steps     []historyStep `json:"steps"`
	NextAfter *int          `json:"next_after,omitempty"`
}

func (s *Server) handleHistory(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	object := r.URL.Query().Get("object")
	if object == "" {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest, errors.New("server: missing ?object="))
		return
	}
	limit, after, err := pageParams(r)
	if err != nil {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest, err)
		return
	}
	last, ok := replayOr4xx(t, w, r)
	if !ok {
		return
	}
	steps := eval.History(last.Result, term.Sym(object))
	resp := historyResponse{Object: object, Steps: []historyStep{}}
	for i, st := range steps {
		if i < after {
			continue
		}
		if len(resp.Steps) == limit {
			next := i
			resp.NextAfter = &next
			break
		}
		h := historyStep{Version: st.V.String(), State: factStrings(st.State)}
		if st.V.Path.Len() > 0 {
			h.Kind = st.Kind.String()
		}
		h.Added = factStrings(st.Added)
		h.Removed = factStrings(st.Removed)
		resp.Steps = append(resp.Steps, h)
	}
	writeJSON(w, resp)
}

// replayOr4xx returns the traced evaluation the history and explain routes
// answer from: that of the journaled apply ?state=K names (K as in the
// apply response's "state" and in /state?n=), by default the newest. The
// evaluation is recomputed from the journal (repository.Replay), so the
// routes answer the same on a follower, after a restart and for any state
// the journal still reaches. A malformed K is 400, a K without a journaled
// program — 0, beyond the journal, or any before the first apply — 404.
func replayOr4xx(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) (*eval.Result, bool) {
	state := repository.Newest
	if v := r.URL.Query().Get("state"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("server: bad state number %q", v))
			return nil, false
		}
		if n < 0 { // Newest is not for callers to spell
			writeError(w, r, fmt.Errorf("%w: %d", repository.ErrNoSuchState, n))
			return nil, false
		}
		state = n
	}
	res, err := t.Repo().Replay(state)
	if err != nil {
		writeError(w, r, err)
		return nil, false
	}
	return res, true
}

func factStrings(fs []term.Fact) []string {
	out := make([]string, len(fs))
	for i, f := range fs {
		out[i] = f.String()
	}
	return out
}

// statsResponse summarizes the head base.
type statsResponse struct {
	Facts    int               `json:"facts"`
	Objects  int               `json:"objects"`
	Versions int               `json:"versions"`
	MaxDepth int               `json:"max_depth"`
	Methods  []methodStatEntry `json:"methods"`
}

type methodStatEntry struct {
	Method   string `json:"method"`
	Facts    int    `json:"facts"`
	Versions int    `json:"versions"`
}

func (s *Server) handleStats(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	head, err := t.Repo().Head()
	if err != nil {
		writeError(w, r, err)
		return
	}
	st := objectbase.CollectStats(head)
	resp := statsResponse{
		Facts: st.Facts, Objects: st.Objects, Versions: st.Versions, MaxDepth: st.MaxDepth,
	}
	for _, m := range st.Methods {
		resp.Methods = append(resp.Methods, methodStatEntry{Method: m.Method, Facts: m.Facts, Versions: m.Versions})
	}
	writeJSON(w, resp)
}

// explainEntry is one explained fact.
type explainEntry struct {
	Fact        string `json:"fact"`
	Provenance  string `json:"provenance"`
	Explanation string `json:"explanation"`
}

type explainResponse struct {
	Entries []explainEntry `json:"entries"`
}

// handleExplain explains facts (text body, fact syntax) against the
// fixpoint of the apply ?state= names (default: the most recent one).
func (s *Server) handleExplain(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	src, ok := readBodyOr400(w, r)
	if !ok {
		return
	}
	facts, err := parser.Facts(src, "request")
	if err != nil {
		writeError(w, r, err)
		return
	}
	last, ok := replayOr4xx(t, w, r)
	if !ok {
		return
	}
	resp := explainResponse{Entries: make([]explainEntry, 0, len(facts))}
	for _, f := range facts {
		e := last.Explain(f)
		resp.Entries = append(resp.Entries, explainEntry{
			Fact:        f.String(),
			Provenance:  e.Kind.String(),
			Explanation: e.String(),
		})
	}
	writeJSON(w, resp)
}

// constraintsResponse renders the installed constraints.
type constraintsResponse struct {
	Count int    `json:"count"`
	Text  string `json:"text"`
}

func (s *Server) handleGetConstraints(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	cs := t.Repo().Constraints()
	var b strings.Builder
	for _, c := range cs {
		if c.Name != "" {
			fmt.Fprintf(&b, "%s: ", c.Name)
		}
		fmt.Fprintln(&b, c.String())
	}
	writeJSON(w, constraintsResponse{Count: len(cs), Text: b.String()})
}

func (s *Server) handleSetConstraints(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectIfReadOnly(w, r) {
		return
	}
	src, ok := readBodyOr400(w, r)
	if !ok {
		return
	}
	if err := t.Repo().SetConstraints(src); err != nil {
		writeError(w, r, err)
		return
	}
	writeJSON(w, map[string]int{"installed": len(t.Repo().Constraints())})
}

// checkResponse reports a program's static analysis: the full diagnostic
// list of the analyzer (positioned, with stable codes), OK when none has
// error severity, and the stratification when one exists. An unparsable or
// unsafe program is still a successful check (HTTP 200): the diagnostics
// ARE the result.
type checkResponse struct {
	Rules       int                   `json:"rules"`
	OK          bool                  `json:"ok"`
	Strata      []string              `json:"strata,omitempty"`
	Diagnostics []analysis.Diagnostic `json:"diagnostics"`
	// Facts carries the deep tier's machine-readable analysis (class/sort
	// inference, join plans with cardinality estimates, per-rule and
	// per-stratum cost) when the request asked for ?deep=1.
	Facts *analysis.Facts `json:"facts,omitempty"`
}

func (s *Server) handleCheck(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	src, ok := readBodyOr400(w, r)
	if !ok {
		return
	}
	setDetail(r, src)
	head, err := t.Repo().Head()
	if err != nil {
		writeError(w, r, err)
		return
	}
	// The head base supplies the method vocabulary and existing deep
	// versions, sharpening the lint passes. ?deep=1 additionally runs the
	// semantic tier (V03xx diagnostics plus the Facts export); it never
	// moves the ok line.
	var ds []analysis.Diagnostic
	var p *term.Program
	var facts *analysis.Facts
	if isDeep(r) {
		ds, facts, p = analysis.DeepSource(src, "request", analysis.Options{Base: head})
	} else {
		ds, p = analysis.Source(src, "request", analysis.Options{Base: head})
	}
	if ds == nil {
		ds = []analysis.Diagnostic{}
	}
	resp := checkResponse{OK: !analysis.HasErrors(ds), Diagnostics: ds, Facts: facts}
	if p == nil {
		writeJSON(w, resp)
		return
	}
	resp.Rules = len(p.Rules)
	if resp.OK {
		// No error-severity diagnostics means safety and stratification
		// hold, so Stratify cannot fail here.
		if a, err := strata.Stratify(p); err == nil {
			labels := p.RuleLabels()
			for _, stratum := range a.Strata {
				names := ""
				for i, ri := range stratum {
					if i > 0 {
						names += ", "
					}
					names += labels[ri]
				}
				resp.Strata = append(resp.Strata, names)
			}
		}
	}
	writeJSON(w, resp)
}

func (s *Server) handleQuery(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	src, ok := readBodyOr400(w, r)
	if !ok {
		return
	}
	setDetail(r, src)
	lits, err := parser.Query(src, "query")
	if err != nil {
		writeError(w, r, err)
		return
	}
	vars, rows, err := t.Repo().QueryRows(lits)
	if err != nil {
		writeError(w, r, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(appendRows(nil, vars, rows))
}

// appendRows renders the answers of a query as {"rows":[{"E":"bob","S":"4200"}]}
// and a newline: byte for byte what writeJSON makes of a []map[string]string
// (variables in sorted order), without a map and a reflection walk per
// answer. A first pass sizes the document with the renderer the second
// writes with, so buf grows once, to the exact size.
func appendRows(buf []byte, vars []term.Var, rows [][]term.OID) []byte {
	// keys[j] precedes variable j's value in an answer: "E":, then ,"S":.
	keys := make([][]byte, len(vars))
	perRow := len("{}")
	for j, v := range vars {
		if j > 0 {
			keys[j] = []byte{','}
		}
		keys[j] = append(appendJSONString(keys[j], []byte(v)), ':')
		perRow += len(keys[j])
	}
	var cell []byte
	size := len(`{"rows":[]}`+"\n") + max(len(rows)-1, 0) + perRow*len(rows)
	for _, row := range rows {
		for _, o := range row {
			cell = o.AppendTo(cell[:0])
			size += jsonStringLen(cell)
		}
	}
	buf = slices.Grow(buf, size)
	buf = append(buf, `{"rows":[`...)
	for i, row := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '{')
		for j, o := range row {
			buf = append(buf, keys[j]...)
			cell = o.AppendTo(cell[:0])
			buf = appendJSONString(buf, cell)
		}
		buf = append(buf, '}')
	}
	return append(buf, "]}\n"...)
}

// jsonStringLen is len(appendJSONString(nil, s)), without the copy when s
// needs no escapes.
func jsonStringLen(s []byte) int {
	if plainJSON(s) {
		return len(s) + 2
	}
	return len(appendJSONString(nil, s))
}

// plainJSON reports whether s is printable ASCII that JSON quotes as is.
func plainJSON(s []byte) bool {
	for _, c := range s {
		if c < 0x20 || c >= 0x7f || c == '"' || c == '\\' {
			return false
		}
	}
	return true
}

// appendJSONString appends s as a JSON string. Printable ASCII needs only
// the quotes; anything else is left to encoding/json's escaping rules.
func appendJSONString(buf, s []byte) []byte {
	if !plainJSON(s) {
		var sb strings.Builder
		enc := json.NewEncoder(&sb)
		enc.SetEscapeHTML(false)
		enc.Encode(string(s))
		return append(buf, strings.TrimSuffix(sb.String(), "\n")...)
	}
	buf = append(buf, '"')
	buf = append(buf, s...)
	return append(buf, '"')
}

// applyTimings renders eval.Stats in microseconds for the apply response.
type applyTimings struct {
	ParseUS       int64   `json:"parse_us"`
	QueueUS       int64   `json:"queue_us"`
	SafetyUS      int64   `json:"safety_us"`
	StratifyUS    int64   `json:"stratify_us"`
	StrataUS      []int64 `json:"strata_us,omitempty"`
	CopyUS        int64   `json:"copy_us"`
	EvalUS        int64   `json:"eval_us"`
	ConstraintsUS int64   `json:"constraints_us"`
	CommitUS      int64   `json:"commit_us"`
	EncodeUS      int64   `json:"encode_us"`
	CommitWaitUS  int64   `json:"commit_wait_us"`
	TotalUS       int64   `json:"total_us"`
}

func timingsFromStats(st eval.Stats, total time.Duration) *applyTimings {
	us := func(d time.Duration) int64 { return d.Microseconds() }
	t := &applyTimings{
		ParseUS:       us(st.Parse),
		QueueUS:       us(st.Queue),
		SafetyUS:      us(st.Safety),
		StratifyUS:    us(st.Stratify),
		CopyUS:        us(st.Copy),
		EvalUS:        us(st.Eval),
		ConstraintsUS: us(st.ConstraintCheck),
		CommitUS:      us(st.Commit),
		EncodeUS:      us(st.Encode),
		CommitWaitUS:  us(st.CommitWait),
		TotalUS:       us(total),
	}
	for _, s := range st.Strata {
		t.StrataUS = append(t.StrataUS, us(s.Duration))
	}
	return t
}

// applyResponse reports a committed update. Replayed is set when the
// request's Idempotency-Key matched an already-journaled update and
// nothing was re-fired; replays carry no timings. Trace and Rules are
// present only when the request asked for ?trace=1: the span tree of the
// whole pipeline and the per-rule hot list (most expensive rule first).
type applyResponse struct {
	State    int             `json:"state"`
	Fired    int             `json:"fired"`
	Strata   int             `json:"strata"`
	Facts    int             `json:"facts"`
	Iters    []int           `json:"iterations"`
	Replayed bool            `json:"replayed,omitempty"`
	Timings  *applyTimings   `json:"timings,omitempty"`
	Trace    *obs.Trace      `json:"trace,omitempty"`
	Rules    []eval.RuleStat `json:"rules,omitempty"`
}

// stratumLabel bounds the cardinality of per-stratum metric labels.
func stratumLabel(i int) string {
	if i >= 8 {
		return "9+"
	}
	return strconv.Itoa(i + 1)
}

// recordApplyStats aggregates one apply's stage timings into the
// server-side histograms.
func (s *Server) recordApplyStats(st eval.Stats, total time.Duration) {
	s.applySeconds.Observe(total)
	stage := func(name string, d time.Duration) {
		s.reg.Histogram("verlog_eval_stage_seconds",
			"Per-stage apply latency (parse, queue, safety, stratify, eval, copy, constraints, commit = encode + commit_wait).",
			"stage", name).Observe(d)
	}
	stage("parse", st.Parse)
	stage("queue", st.Queue)
	stage("safety", st.Safety)
	stage("stratify", st.Stratify)
	stage("eval", st.Eval)
	stage("copy", st.Copy)
	stage("constraints", st.ConstraintCheck)
	stage("commit", st.Commit)
	stage("encode", st.Encode)
	stage("commit_wait", st.CommitWait)
	for i, tm := range st.Strata {
		s.reg.Histogram("verlog_eval_stratum_seconds",
			"Per-stratum T_P fixpoint latency.", "stratum", stratumLabel(i)).Observe(tm.Duration)
		s.reg.Counter("verlog_eval_stratum_iterations_total",
			"T_P iterations per stratum.", "stratum", stratumLabel(i)).Add(int64(tm.Iterations))
	}
}

// setDetail attaches a one-line summary of the request body to the slow
// log entry for this request.
func setDetail(r *http.Request, body string) {
	if ri := info(r.Context()); ri != nil {
		line := strings.TrimSpace(body)
		if i := strings.IndexByte(line, '\n'); i >= 0 {
			line = line[:i] + " …"
		}
		if len(line) > 120 {
			line = line[:120] + "…"
		}
		ri.Detail = line
	}
}

// handleApply applies an update-program. A client that retries a failed
// request sends the same Idempotency-Key header both times; the key is
// journaled with the entry, so a retry of an update that did commit is
// answered from the journal instead of firing twice.
// wantTrace reports whether the request asked for a span tree.
func wantTrace(r *http.Request) bool {
	v := r.URL.Query().Get("trace")
	return v == "1" || v == "true"
}

// isDeep reports whether a check request asked for the semantic tier.
func isDeep(r *http.Request) bool {
	v := r.URL.Query().Get("deep")
	return v == "1" || v == "true"
}

func (s *Server) handleApply(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	if s.rejectIfReadOnly(w, r) {
		return
	}
	start := time.Now()
	src, ok := readBodyOr400(w, r)
	if !ok {
		return
	}
	setDetail(r, src)

	// With ?trace=1 the whole pipeline (parse through commit) is collected
	// as a span tree, returned in the response and retained in the trace
	// ring (successful or not). The trace id is the request's W3C trace id,
	// so the traceparent header, the slog line, the slow log and the ring
	// all join on it.
	var tr *obs.Trace
	var root *obs.Span
	if wantTrace(r) {
		tr = obs.NewTrace("apply")
		if tid := TraceID(r.Context()); tid != "" {
			tr.ID = tid
		}
		tr.SetMeta("request_id", RequestID(r.Context()))
		root = tr.Root
	}
	finishTrace := func(outcome string) {
		if tr == nil {
			return
		}
		tr.SetMeta("outcome", outcome)
		tr.Finish()
		s.traces.Add(tr)
		tr = nil // at most one ring entry per request
	}

	parseStart := time.Now()
	parseSpan := root.StartChild("parse")
	p, err := parser.Program(src, "request")
	parseSpan.End()
	if err != nil {
		finishTrace("parse_error")
		writeError(w, r, err)
		return
	}
	parseSpan.SetInt("rules", int64(len(p.Rules)))
	parseDur := time.Since(parseStart)
	key := r.Header.Get("Idempotency-Key")
	// No fired-update trace and nothing kept past the response: history and
	// explain recompute theirs from the journal (replayOr4xx). The span tree
	// rides along only when requested. ApplyKey is safe for concurrent use:
	// the repository evaluates one apply at a time and group-commits.
	res, entry, replayed, err := t.Repo().ApplyKey(p, key, core.WithSpan(root))
	if err != nil {
		finishTrace("error")
		writeError(w, r, err)
		return
	}
	if replayed {
		finishTrace("replayed")
		head, err := t.Repo().Head()
		if err != nil {
			writeError(w, r, err)
			return
		}
		writeJSON(w, applyResponse{
			State:    entry.Seq - t.Repo().SnapshotSeq(),
			Fired:    entry.Fired,
			Strata:   entry.Strata,
			Facts:    head.Size(),
			Replayed: true,
		})
		return
	}
	// Number the state from this commit's own journal entry rather than
	// Len(): under concurrency the published head may already be past it.
	n := entry.Seq - t.Repo().SnapshotSeq()
	res.Stats.Parse = parseDur
	total := time.Since(start)
	s.recordApplyStats(res.Stats, total)
	s.recordRuleStats(res.RuleStats)
	resp := applyResponse{
		State:   n,
		Fired:   res.Fired,
		Strata:  res.Assignment.NumStrata(),
		Facts:   res.Final.Size(),
		Iters:   res.Iterations,
		Timings: timingsFromStats(res.Stats, total),
	}
	if tr != nil {
		resp.Trace = tr
		resp.Rules = res.RuleStats
		finishTrace("ok")
	}
	writeJSON(w, resp)
}

// slowResponse is the /v1/debug/slow payload.
type slowResponse struct {
	ThresholdMS float64         `json:"threshold_ms"`
	Total       int64           `json:"total"`
	Entries     []obs.SlowEntry `json:"entries"`
}

func (s *Server) handleSlow(w http.ResponseWriter, r *http.Request) {
	entries := s.slow.Entries()
	if entries == nil {
		entries = []obs.SlowEntry{}
	}
	writeJSON(w, slowResponse{
		ThresholdMS: float64(s.slowThreshold) / float64(time.Millisecond),
		Total:       s.slow.Total(),
		Entries:     entries,
	})
}

// traceSummary is one row of the trace-ring listing.
type traceSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	RequestID  string    `json:"request_id,omitempty"`
	Outcome    string    `json:"outcome,omitempty"`
}

// tracesResponse is the /v1/debug/traces listing payload.
type tracesResponse struct {
	Total   int64          `json:"total"`
	Entries []traceSummary `json:"entries"`
}

// handleTraces pages the ring of recent apply traces, newest first.
// ?id= returns one full span tree; &format=chrome renders it in Chrome
// trace_event JSON (loadable in chrome://tracing and Perfetto).
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	if id := q.Get("id"); id != "" {
		tr := s.traces.Get(id)
		if tr == nil {
			writeErrorCode(w, r, http.StatusNotFound, CodeNotFound,
				fmt.Errorf("server: no retained trace %s (the ring keeps the last %d)", id, traceRingCapacity))
			return
		}
		if q.Get("format") == "chrome" {
			w.Header().Set("Content-Type", "application/json")
			tr.WriteChrome(w)
			return
		}
		writeJSON(w, tr)
		return
	}
	limit := traceRingCapacity
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
				fmt.Errorf("server: bad limit %q (want a positive integer)", v))
			return
		}
		limit = n
	}
	resp := tracesResponse{Total: s.traces.Total(), Entries: []traceSummary{}}
	for _, tr := range s.traces.Traces() {
		if len(resp.Entries) == limit {
			break
		}
		resp.Entries = append(resp.Entries, traceSummary{
			ID:         tr.ID,
			Name:       tr.Name,
			Start:      tr.Start,
			DurationMS: float64(tr.DurUS) / 1e3,
			Spans:      tr.SpanCount(),
			RequestID:  tr.Meta["request_id"],
			Outcome:    tr.Meta["outcome"],
		})
	}
	writeJSON(w, resp)
}

// explainStep is one link of a provenance chain: a fact and where it came
// from. For update provenance the firing rule, stratum, iteration and the
// ground update are given; for copy provenance the predecessor version the
// fact was inherited from.
type explainStep struct {
	Fact       string `json:"fact"`
	Provenance string `json:"provenance"`
	Rule       string `json:"rule,omitempty"`
	Stratum    int    `json:"stratum,omitempty"`
	Iteration  int    `json:"iteration,omitempty"`
	Update     string `json:"update,omitempty"`
	CopiedFrom string `json:"copied_from,omitempty"`
}

// explainChain is the provenance of one fact, walked back to the input
// base: chain[0] is the fact itself, the last step is input or update
// provenance.
type explainChain struct {
	Fact  string        `json:"fact"`
	Chain []explainStep `json:"chain"`
}

// explainVersionResponse answers GET /v1/t/{tenant}/explain?vid=&method=.
type explainVersionResponse struct {
	VID    string         `json:"vid"`
	Method string         `json:"method"`
	Facts  []explainChain `json:"facts"`
}

// handleExplainVersion explains every fact vid.method -> ... of an apply's
// fixpoint (?state=, default the last apply), walking each copy chain back
// to the version that introduced the fact (an update or the input base).
func (s *Server) handleExplainVersion(t *tenant.Tenant, w http.ResponseWriter, r *http.Request) {
	vid := strings.TrimSpace(r.URL.Query().Get("vid"))
	method := strings.TrimSpace(r.URL.Query().Get("method"))
	if vid == "" || method == "" {
		writeErrorCode(w, r, http.StatusBadRequest, CodeBadRequest,
			fmt.Errorf("server: missing ?vid= or ?method= (e.g. /v1/t/%s/explain?vid=mod(bob)&method=sal)", t.Name()))
		return
	}
	res, ok := replayOr4xx(t, w, r)
	if !ok {
		return
	}
	// The caller copies ids verbatim from history or trace output, so the
	// version is the one that renders as vid: read it back, look it up.
	var facts []term.Fact
	if v := parseVID(vid); v.String() == vid {
		for f := range res.Result.FactsOf(v) {
			if f.Method == method {
				facts = append(facts, f)
			}
		}
	}
	if len(facts) == 0 {
		writeErrorCode(w, r, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("server: no fact %s.%s -> ... in that apply's fixpoint", vid, method))
		return
	}
	sort.Slice(facts, func(i, j int) bool { return facts[i].String() < facts[j].String() })
	resp := explainVersionResponse{VID: vid, Method: method}
	for _, f := range facts {
		resp.Facts = append(resp.Facts, explainChain{Fact: f.String(), Chain: provenanceChain(res, f)})
	}
	writeJSON(w, resp)
}

// parseVID reads a version id back from the way GVID.String renders it:
// update kinds around an object identity, mod(del(o)). Text that is not
// such a rendering yields a version that renders differently.
func parseVID(vid string) term.GVID {
	kindOf := map[string]term.UpdateKind{"ins(": term.Ins, "del(": term.Del, "mod(": term.Mod}
	var kinds []term.UpdateKind // outermost first
	for len(vid) > 4 && vid[len(vid)-1] == ')' {
		k, ok := kindOf[vid[:4]]
		if !ok {
			break
		}
		kinds, vid = append(kinds, k), vid[4:len(vid)-1]
	}
	slices.Reverse(kinds)
	v := term.GVID{Object: term.Sym(vid), Path: term.PathOf(kinds...)}
	if s, err := strconv.Unquote(vid); err == nil && vid[0] == '"' {
		v.Object = term.Str(s)
	} else if q, err := term.ParseRat(vid); err == nil {
		v.Object = term.FromRat(q)
	}
	return v
}

// provenanceChain walks a fact's provenance back to its introduction: each
// copy step moves to the shallower version the fact was inherited from, so
// the walk ends at input or update provenance (or unknown, defensively).
func provenanceChain(res *eval.Result, f term.Fact) []explainStep {
	var chain []explainStep
	for {
		e := res.Explain(f)
		step := explainStep{Fact: f.String(), Provenance: e.Kind.String()}
		if e.Event != nil {
			step.Rule = e.Event.Rule
			step.Stratum = e.Event.Stratum + 1
			step.Iteration = e.Event.Iteration
			step.Update = e.Event.Update.String()
		}
		if e.Kind == eval.ProvenanceCopy {
			step.CopiedFrom = e.CopiedFrom.String()
		}
		chain = append(chain, step)
		if e.Kind != eval.ProvenanceCopy || e.CopiedFrom.Path.Len() >= f.V.Path.Len() {
			return chain
		}
		f = f.WithV(e.CopiedFrom)
	}
}
