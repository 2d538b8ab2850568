// Package client is a Go client for the verlog HTTP server
// (cmd/verlog-server): typed access to apply, query, check, time travel,
// histories and constraints over a journaled object base.
//
//	c := client.New("http://localhost:8487")
//	res, err := c.Apply(ctx, program)
//	rows, err := c.Query(ctx, `E.isa -> hpe.`)
//
// Every logical request carries an X-Request-Id the client generates (all
// retry attempts of one call reuse it), so a slow request in the server's
// request log or /v1/debug/slow can be joined to the caller's retry trace.
// Server errors arrive as *APIError carrying the machine-readable code
// from the v1 error envelope.
package client

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Defaults for the client's resilience knobs.
const (
	// DefaultTimeout bounds one HTTP attempt end to end (the server's
	// write timeout is 5 minutes; applies can evaluate for a while).
	DefaultTimeout = 2 * time.Minute
	// DefaultRetries is how many times a transiently-failed request is
	// retried after the first attempt.
	DefaultRetries = 2
	// DefaultBackoff is the wait before the first retry; it doubles per
	// attempt.
	DefaultBackoff = 250 * time.Millisecond
)

// Client talks to a verlog server — or to a replicated group of them
// (NewMulti). Requests that fail transiently (connection errors,
// per-attempt timeouts, 429/5xx) are retried with exponential backoff; with
// multiple endpoints each retry rotates to the next one, so reads fail
// over to any live replica. A write answered 403 read_only (the endpoint
// is a replication follower) follows the envelope's primary URL, which is
// then remembered for subsequent writes. Retrying Apply is safe because
// every Apply call carries an Idempotency-Key the server deduplicates
// against the journal: an update that did commit before the connection
// died is not fired twice — even across a failover, since keys ride the
// replication stream — the recorded result is replayed.
// A Client is scoped to one tenant namespace: New returns a handle on the
// "default" tenant, Tenant(name) a handle on any other. Handles made from
// one client share the transport, the endpoint rotation cursor and the
// learned primary, so a failover discovered through one tenant
// immediately redirects every tenant's writes.
type Client struct {
	endpoints []string
	http      *http.Client
	retries   int
	backoff   time.Duration

	// prefix is the tenant-scoped route prefix repository endpoints are
	// issued under: "/v1/t/<name>" for tenant handles, "/v1" for the
	// default handle (the deprecated-but-stable legacy form, kept so the
	// default client works against older servers too). Server-global
	// endpoints (/v1/repl/*, /v1/debug/*, /metrics) never take the prefix.
	prefix string

	// state is the journaled state History and the Explain calls ask
	// about (see AtState); 0 leaves it to the server, which takes the newest.
	state int

	// st is the mutable failover state, shared by every handle of this
	// client family.
	st *clientState
}

// clientState is the rotation cursor and learned primary shared across
// all tenant handles of one client.
type clientState struct {
	mu      sync.Mutex
	cur     int
	primary string // write target learned from a read_only redirect
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying *http.Client (transports,
// custom TLS, its Timeout replaces the default per-attempt timeout).
func WithHTTPClient(h *http.Client) Option { return func(c *Client) { c.http = h } }

// WithTimeout sets the per-attempt timeout (DefaultTimeout otherwise).
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.http.Timeout = d }
}

// WithRetry sets how many times a transient failure is retried and the
// initial backoff, which doubles per attempt. retries = 0 disables
// retrying.
func WithRetry(retries int, backoff time.Duration) Option {
	return func(c *Client) { c.retries, c.backoff = retries, backoff }
}

// New returns a client for the server at baseURL (e.g.
// "http://localhost:8487").
func New(baseURL string, opts ...Option) *Client {
	return NewMulti([]string{baseURL}, opts...)
}

// NewMulti returns a client for a replicated group: reads go to the
// current endpoint and rotate to the next on connection errors and 5xx;
// writes additionally follow the read_only redirect to the primary. The
// default retry budget grows with the endpoint count so one dead replica
// cannot exhaust it.
func NewMulti(endpoints []string, opts ...Option) *Client {
	c := &Client{
		http:    &http.Client{Timeout: DefaultTimeout},
		retries: DefaultRetries + len(endpoints) - 1,
		backoff: DefaultBackoff,
		prefix:  "/v1",
		st:      &clientState{},
	}
	for _, e := range endpoints {
		c.endpoints = append(c.endpoints, strings.TrimRight(e, "/"))
	}
	if len(c.endpoints) == 0 {
		c.endpoints = []string{""}
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// Endpoints returns the configured endpoints.
func (c *Client) Endpoints() []string { return append([]string(nil), c.endpoints...) }

// Tenant returns a handle scoped to the named tenant: every
// repository-scoped call is issued under /v1/t/<name>/..., against the
// tenant's own journal, constraints and idempotency keys. The handle
// shares this client's transport, retry budget, endpoint rotation and
// learned primary — scoping is free, and a read_only redirect followed by
// any handle retargets them all. The name is validated by the server
// ([a-z0-9][a-z0-9-_]{0,63}); an invalid one answers invalid_tenant.
//
// Tenant("default") addresses the same namespace as the top-level
// methods, through the successor route form.
func (c *Client) Tenant(name string) *Client {
	t := *c
	t.prefix = "/v1/t/" + name
	return &t
}

// AtState returns a handle whose History, HistoryPage, Explain and
// ExplainVersion ask about the apply that led to journaled state n — the
// State of that apply's ApplyResult, the n of State — instead of the newest
// one. The server recomputes the answer from its journal, so any node that
// holds the entry can serve it, restarted or not; a state the journal does
// not reach answers not_found. Other calls ignore the setting, and like
// Tenant the handle shares everything else with c.
func (c *Client) AtState(n int) *Client {
	t := *c
	t.state = n
	return &t
}

// stateParam renders the AtState selection as a query parameter, led by sep.
func (c *Client) stateParam(sep string) string {
	if c.state == 0 {
		return ""
	}
	return sep + "state=" + strconv.Itoa(c.state)
}

// api scopes a repository endpoint suffix ("/apply", "/head?n=1", ...)
// to this handle's tenant prefix.
func (c *Client) api(suffix string) string { return c.prefix + suffix }

// current returns the endpoint reads currently use.
func (c *Client) current() string {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	return c.endpoints[c.st.cur]
}

// rotate advances past a failed endpoint (no-op with one endpoint). If
// the failed endpoint was the remembered primary, it is forgotten — the
// next write rediscovers the primary through a read_only redirect.
func (c *Client) rotate(failed string) {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.endpoints[c.st.cur] == failed {
		c.st.cur = (c.st.cur + 1) % len(c.endpoints)
	}
	if c.st.primary == failed {
		c.st.primary = ""
	}
}

// writeTarget returns where a mutating request should start: the learned
// primary, or the current endpoint when none is known.
func (c *Client) writeTarget() string {
	c.st.mu.Lock()
	defer c.st.mu.Unlock()
	if c.st.primary != "" {
		return c.st.primary
	}
	return c.endpoints[c.st.cur]
}

func (c *Client) setPrimary(p string) {
	c.st.mu.Lock()
	c.st.primary = strings.TrimRight(p, "/")
	c.st.mu.Unlock()
}

// mutating reports whether a request can be answered read_only on a
// follower and should therefore start at the learned primary. The check
// is on the path's suffix so it holds for both the tenant-prefixed form
// (/v1/t/acme/apply) and the legacy one (/v1/apply).
func mutating(method, path string) bool {
	if i := strings.IndexByte(path, '?'); i >= 0 {
		path = path[:i]
	}
	return method == http.MethodPost &&
		(strings.HasSuffix(path, "/apply") || strings.HasSuffix(path, "/constraints"))
}

// Position locates a diagnostic or error in submitted program text.
type Position struct {
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (p Position) String() string {
	if p.Line <= 0 {
		return "-"
	}
	file := p.File
	if file == "" {
		file = "<input>"
	}
	return fmt.Sprintf("%s:%d:%d", file, p.Line, p.Col)
}

// Diagnostic is one finding of the server-side static analyzer, returned
// by Check. Codes are stable ("V0001"); severity is "error", "warning" or
// "info". Only error-severity diagnostics block Apply.
type Diagnostic struct {
	Code     string   `json:"code"`
	Severity string   `json:"severity"`
	Position Position `json:"position"`
	Rule     string   `json:"rule,omitempty"`
	Message  string   `json:"message"`
	Witness  string   `json:"witness,omitempty"`
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s %s: %s", d.Position, d.Severity, d.Code, d.Message)
}

// APIError is a non-2xx response from the server.
type APIError struct {
	StatusCode int
	// Code is the machine-readable error code from the v1 envelope
	// ("parse_error", "not_stratifiable", "constraint_violation", ...).
	// Empty when the response was not the envelope (e.g. a proxy error).
	Code    string
	Message string
	// Position locates the error in the submitted program text, when the
	// server attributed it to one (parse, safety, stratification).
	Position *Position
	// RequestID is the X-Request-Id the failed exchange ran under, for
	// joining against the server's logs.
	RequestID string
	// Primary is the primary's base URL on read_only rejections (the
	// answering endpoint is a replication follower). The client follows it
	// automatically; it is surfaced for callers doing their own routing.
	Primary string
}

func (e *APIError) Error() string {
	msg := e.Message
	if e.Position != nil {
		msg = e.Position.String() + ": " + msg
	}
	if e.Code != "" {
		return fmt.Sprintf("verlog server: %d %s: %s", e.StatusCode, e.Code, msg)
	}
	return fmt.Sprintf("verlog server: %d: %s", e.StatusCode, msg)
}

// retryable reports whether an attempt's failure is worth retrying: any
// transport-level error (the outer context is checked separately), plus
// the overload/gateway statuses. Domain errors (4xx, plain 500) are not.
func retryable(err error) bool {
	var ae *APIError
	if errors.As(err, &ae) {
		switch ae.StatusCode {
		case http.StatusTooManyRequests, http.StatusBadGateway,
			http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			return true
		}
		return false
	}
	return true
}

// randomHex returns 2n random hex characters (crypto/rand; "" on the
// effectively-fatal case of the random source failing).
func randomHex(n int) string {
	b := make([]byte, n)
	if _, err := rand.Read(b); err != nil {
		return ""
	}
	return hex.EncodeToString(b)
}

// newIdempotencyKey returns a fresh random key for one logical apply. An
// empty key (random source failed) disables deduplication rather than
// panicking.
func newIdempotencyKey() string { return randomHex(16) }

func (c *Client) do(ctx context.Context, method, path, body string) ([]byte, error) {
	return c.doKey(ctx, method, path, body, "")
}

// doKey issues one logical request with retries and endpoint failover. A
// fresh X-Request-Id is generated for the call and sent on every attempt,
// so all retries of one logical request join to the same id in the
// server's logs. idemKey, when non-empty, is sent as the Idempotency-Key
// header on every attempt so the server can deduplicate a retry of a
// request that actually committed.
//
// Failover: a transient failure rotates the shared endpoint cursor before
// backing off, so the retry (and subsequent calls) land on the next
// replica. A read_only rejection — the endpoint is a follower — retargets
// this call at the primary URL from the envelope without consuming a
// retry, and remembers it for later writes. Redirects are bounded per
// call rather than single-use: when the learned primary then fails and
// rotate() sends a retry back to a follower (the window of an in-flight
// failover), the follower's next read_only answer is followed again
// instead of failing the call with retry budget left.
func (c *Client) doKey(ctx context.Context, method, path, body, idemKey string) ([]byte, error) {
	reqID := randomHex(8)
	base := c.current()
	if mutating(method, path) {
		base = c.writeTarget()
	}
	redirects := 0
	maxRedirects := len(c.endpoints) + 1
	var lastErr error
	for attempt := 0; ; attempt++ {
		data, err := c.attempt(ctx, base, method, path, body, idemKey, reqID)
		if err == nil {
			return data, nil
		}
		lastErr = err
		var ae *APIError
		if errors.As(err, &ae) && ae.Code == "read_only" && ae.Primary != "" && redirects < maxRedirects {
			// The endpoint is a follower: follow the redirect, free.
			c.setPrimary(ae.Primary)
			base = strings.TrimRight(ae.Primary, "/")
			redirects++
			continue
		}
		if attempt >= c.retries || !retryable(err) || ctx.Err() != nil {
			return nil, lastErr
		}
		c.rotate(base)
		base = c.current()
		wait := c.backoff << attempt
		t := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, lastErr
		case <-t.C:
		}
	}
}

func (c *Client) attempt(ctx context.Context, base, method, path, body, idemKey, reqID string) ([]byte, error) {
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, base+path, rdr)
	if err != nil {
		return nil, err
	}
	if body != "" {
		req.Header.Set("Content-Type", "text/plain; charset=utf-8")
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		ae := &APIError{
			StatusCode: resp.StatusCode,
			Message:    strings.TrimSpace(string(data)),
			RequestID:  resp.Header.Get("X-Request-Id"),
		}
		if ae.RequestID == "" {
			ae.RequestID = reqID
		}
		// The v1 envelope: {"error":{"code":"...","message":"..."}}; older
		// servers and proxies send a flat {"error":"..."} or plain text.
		var envelope struct {
			Error json.RawMessage `json:"error"`
		}
		if json.Unmarshal(data, &envelope) == nil && len(envelope.Error) > 0 {
			var inner struct {
				Code      string    `json:"code"`
				Message   string    `json:"message"`
				Position  *Position `json:"position"`
				Primary   string    `json:"primary"`
				RequestID string    `json:"request_id"`
			}
			var flat string
			switch {
			case json.Unmarshal(envelope.Error, &inner) == nil && inner.Message != "":
				ae.Code, ae.Message, ae.Position, ae.Primary = inner.Code, inner.Message, inner.Position, inner.Primary
				if inner.RequestID != "" {
					ae.RequestID = inner.RequestID
				}
			case json.Unmarshal(envelope.Error, &flat) == nil && flat != "":
				ae.Message = flat
			}
		}
		return nil, ae
	}
	return data, nil
}

// baseEnvelope is the JSON shape of /v1/head and /v1/state.
type baseEnvelope struct {
	Facts int    `json:"facts"`
	Text  string `json:"text"`
}

// Head returns the current object base in concrete text syntax.
func (c *Client) Head(ctx context.Context) (string, error) {
	b, err := c.do(ctx, http.MethodGet, c.api("/head"), "")
	if err != nil {
		return "", err
	}
	var env baseEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return "", err
	}
	return env.Text, nil
}

// State returns the object base after the first n applied programs.
func (c *Client) State(ctx context.Context, n int) (string, error) {
	b, err := c.do(ctx, http.MethodGet, c.api("/state?n="+strconv.Itoa(n)), "")
	if err != nil {
		return "", err
	}
	var env baseEnvelope
	if err := json.Unmarshal(b, &env); err != nil {
		return "", err
	}
	return env.Text, nil
}

// LogEntry summarizes one applied program.
type LogEntry struct {
	Seq     int    `json:"seq"`
	Added   int    `json:"added"`
	Removed int    `json:"removed"`
	Fired   int    `json:"fired"`
	Strata  int    `json:"strata"`
	Program string `json:"program"`
}

// LogPage returns one page of the journal summary: up to limit entries
// with Seq > after (limit <= 0 uses the server default). next is the
// cursor for the following page, or 0 when this page was the last.
func (c *Client) LogPage(ctx context.Context, limit, after int) (entries []LogEntry, next int, err error) {
	q := c.api("/log?")
	if limit > 0 {
		q += "limit=" + strconv.Itoa(limit) + "&"
	}
	q += "after=" + strconv.Itoa(after)
	b, err := c.do(ctx, http.MethodGet, q, "")
	if err != nil {
		return nil, 0, err
	}
	var resp struct {
		Entries   []LogEntry `json:"entries"`
		NextAfter *int       `json:"next_after"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, 0, err
	}
	if resp.NextAfter != nil {
		next = *resp.NextAfter
	}
	return resp.Entries, next, nil
}

// Log returns the full journal summary, following pagination cursors until
// the journal is exhausted.
func (c *Client) Log(ctx context.Context) ([]LogEntry, error) {
	var all []LogEntry
	after := 0
	for {
		entries, next, err := c.LogPage(ctx, 0, after)
		if err != nil {
			return nil, err
		}
		all = append(all, entries...)
		if next == 0 {
			return all, nil
		}
		after = next
	}
}

// ApplyTimings are the server-reported per-stage timings of one apply, in
// microseconds (see eval.Stats for the stage meanings). Queue is the wait
// for the applies ahead; Copy is part of Eval; Encode and CommitWait are
// the two parts of Commit.
type ApplyTimings struct {
	ParseUS       int64   `json:"parse_us"`
	QueueUS       int64   `json:"queue_us"`
	SafetyUS      int64   `json:"safety_us"`
	StratifyUS    int64   `json:"stratify_us"`
	StrataUS      []int64 `json:"strata_us"`
	CopyUS        int64   `json:"copy_us"`
	EvalUS        int64   `json:"eval_us"`
	ConstraintsUS int64   `json:"constraints_us"`
	CommitUS      int64   `json:"commit_us"`
	EncodeUS      int64   `json:"encode_us"`
	CommitWaitUS  int64   `json:"commit_wait_us"`
	TotalUS       int64   `json:"total_us"`
}

// ApplyResult reports a committed update. Replayed is true when the
// server recognized the request's Idempotency-Key and returned the
// already-committed entry instead of firing the update again; replays
// carry no timings.
type ApplyResult struct {
	State    int           `json:"state"`
	Fired    int           `json:"fired"`
	Strata   int           `json:"strata"`
	Facts    int           `json:"facts"`
	Iters    []int         `json:"iterations"`
	Replayed bool          `json:"replayed"`
	Timings  *ApplyTimings `json:"timings"`
}

// Apply sends an update-program (concrete syntax) and commits it. A fresh
// Idempotency-Key is generated for the call so that automatic retries of
// a dropped connection cannot commit the update twice.
func (c *Client) Apply(ctx context.Context, program string) (*ApplyResult, error) {
	return c.ApplyWithKey(ctx, program, newIdempotencyKey())
}

// ApplyWithKey is Apply with a caller-chosen idempotency key: two applies
// carrying the same key commit one journal entry, and the second returns
// the recorded result with Replayed set. An empty key disables
// deduplication.
func (c *Client) ApplyWithKey(ctx context.Context, program, key string) (*ApplyResult, error) {
	b, err := c.doKey(ctx, http.MethodPost, c.api("/apply"), program, key)
	if err != nil {
		return nil, err
	}
	var out ApplyResult
	return &out, json.Unmarshal(b, &out)
}

// Query evaluates a query against the head; each row maps variable names
// to rendered OIDs.
func (c *Client) Query(ctx context.Context, query string) ([]map[string]string, error) {
	b, err := c.do(ctx, http.MethodPost, c.api("/query"), query)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Rows []map[string]string `json:"rows"`
	}
	return resp.Rows, json.Unmarshal(b, &resp)
}

// CheckResult reports a program's static analysis. OK is true when no
// diagnostic has error severity (the program would be accepted by Apply);
// Diagnostics carries every analyzer finding, including warnings and
// infos. Strata is only present when OK.
type CheckResult struct {
	Rules       int          `json:"rules"`
	OK          bool         `json:"ok"`
	Strata      []string     `json:"strata"`
	Diagnostics []Diagnostic `json:"diagnostics"`
}

// Errors returns the error-severity diagnostics.
func (r *CheckResult) Errors() []Diagnostic {
	var out []Diagnostic
	for _, d := range r.Diagnostics {
		if d.Severity == "error" {
			out = append(out, d)
		}
	}
	return out
}

// Check analyzes a program without applying it: safety, stratifiability
// and the lint passes, as positioned diagnostics with stable codes. A
// defective program is NOT an error from Check — inspect OK and
// Diagnostics.
func (c *Client) Check(ctx context.Context, program string) (*CheckResult, error) {
	b, err := c.do(ctx, http.MethodPost, c.api("/check"), program)
	if err != nil {
		return nil, err
	}
	var out CheckResult
	return &out, json.Unmarshal(b, &out)
}

// AnalysisFacts is the machine-readable result of the server's deep
// (semantic) analysis tier: per-rule join plans with cardinality
// estimates, inferred class/sort sets per variable, and cost rollups.
type AnalysisFacts struct {
	Rules  []RuleFacts    `json:"rules"`
	Strata []StratumFacts `json:"strata,omitempty"`
	Base   BaseFacts      `json:"base"`
}

// RuleFacts is the deep tier's view of one rule.
type RuleFacts struct {
	Rule      string         `json:"rule"`
	Stratum   int            `json:"stratum"`
	Recursive bool           `json:"recursive,omitempty"`
	Cost      float64        `json:"cost"`
	Fanout    float64        `json:"fanout"`
	Literals  []LiteralFacts `json:"literals,omitempty"`
	Vars      []VarFacts     `json:"vars,omitempty"`
}

// LiteralFacts is one body literal in the planner's join order.
type LiteralFacts struct {
	Literal string `json:"literal"`
	Source  int    `json:"source"`
	Kind    string `json:"kind"`
	EstRows int    `json:"est_rows"`
	Delta   bool   `json:"delta,omitempty"`
}

// VarFacts is the inferred class/sort set of one rule variable.
type VarFacts struct {
	Var     string   `json:"var"`
	Sorts   []string `json:"sorts"`
	Classes []string `json:"classes,omitempty"`
	Empty   bool     `json:"empty,omitempty"`
}

// StratumFacts is the cost rollup of one stratum.
type StratumFacts struct {
	Stratum   int      `json:"stratum"`
	Rules     []string `json:"rules"`
	Cost      float64  `json:"cost"`
	Recursive bool     `json:"recursive,omitempty"`
}

// BaseFacts summarizes the base the estimates were drawn from.
type BaseFacts struct {
	Supplied bool     `json:"supplied"`
	Objects  int      `json:"objects,omitempty"`
	Versions int      `json:"versions,omitempty"`
	Facts    int      `json:"facts,omitempty"`
	Classes  []string `json:"classes,omitempty"`
}

// DeepCheckResult is CheckResult extended with the deep tier's output.
type DeepCheckResult struct {
	CheckResult
	Facts *AnalysisFacts `json:"facts"`
}

// CheckDeep is Check with the semantic tier enabled (?deep=1): class/sort
// inference, the boundedness analysis and the cost model. Deep findings
// are warnings and infos only — OK means the same thing as for Check —
// and Facts carries the machine-readable plan and inference output.
func (c *Client) CheckDeep(ctx context.Context, program string) (*DeepCheckResult, error) {
	b, err := c.do(ctx, http.MethodPost, c.api("/check?deep=1"), program)
	if err != nil {
		return nil, err
	}
	var out DeepCheckResult
	return &out, json.Unmarshal(b, &out)
}

// HistoryStep is one stage of an object's update process.
type HistoryStep struct {
	Version string   `json:"version"`
	Kind    string   `json:"kind,omitempty"`
	State   []string `json:"state"`
	Added   []string `json:"added,omitempty"`
	Removed []string `json:"removed,omitempty"`
}

// HistoryPage returns one page of the version history of an object from
// the most recent apply (or the one AtState selected): up to limit steps
// starting at offset after (limit <= 0 uses the server default). next is
// the offset of the following page, or 0 when this page was the last.
func (c *Client) HistoryPage(ctx context.Context, object string, limit, after int) (steps []HistoryStep, next int, err error) {
	q := c.api("/history?object="+url.QueryEscape(object)) + c.stateParam("&")
	if limit > 0 {
		q += "&limit=" + strconv.Itoa(limit)
	}
	q += "&after=" + strconv.Itoa(after)
	b, err := c.do(ctx, http.MethodGet, q, "")
	if err != nil {
		return nil, 0, err
	}
	var resp struct {
		Steps     []HistoryStep `json:"steps"`
		NextAfter *int          `json:"next_after"`
	}
	if err := json.Unmarshal(b, &resp); err != nil {
		return nil, 0, err
	}
	if resp.NextAfter != nil {
		next = *resp.NextAfter
	}
	return resp.Steps, next, nil
}

// History returns the full version history of an object from the most
// recent apply (or the one AtState selected), following pagination cursors.
func (c *Client) History(ctx context.Context, object string) ([]HistoryStep, error) {
	var all []HistoryStep
	after := 0
	for {
		steps, next, err := c.HistoryPage(ctx, object, 0, after)
		if err != nil {
			return nil, err
		}
		all = append(all, steps...)
		if next == 0 {
			return all, nil
		}
		after = next
	}
}

// SetConstraints installs integrity constraints (denial form).
func (c *Client) SetConstraints(ctx context.Context, constraints string) (int, error) {
	b, err := c.do(ctx, http.MethodPost, c.api("/constraints"), constraints)
	if err != nil {
		return 0, err
	}
	var out struct {
		Installed int `json:"installed"`
	}
	return out.Installed, json.Unmarshal(b, &out)
}

// Constraints returns the installed constraints in text form.
func (c *Client) Constraints(ctx context.Context) (string, error) {
	b, err := c.do(ctx, http.MethodGet, c.api("/constraints"), "")
	if err != nil {
		return "", err
	}
	var resp struct {
		Text string `json:"text"`
	}
	return resp.Text, json.Unmarshal(b, &resp)
}

// Stats summarizes the head object base.
type Stats struct {
	Facts    int `json:"facts"`
	Objects  int `json:"objects"`
	Versions int `json:"versions"`
	MaxDepth int `json:"max_depth"`
	Methods  []struct {
		Method   string `json:"method"`
		Facts    int    `json:"facts"`
		Versions int    `json:"versions"`
	} `json:"methods"`
}

// Stats fetches the head-base summary.
func (c *Client) Stats(ctx context.Context) (*Stats, error) {
	b, err := c.do(ctx, http.MethodGet, c.api("/stats"), "")
	if err != nil {
		return nil, err
	}
	var out Stats
	return &out, json.Unmarshal(b, &out)
}

// ExplainEntry is the provenance of one fact in an apply's fixpoint.
type ExplainEntry struct {
	Fact        string `json:"fact"`
	Provenance  string `json:"provenance"` // input, update, copy, unknown
	Explanation string `json:"explanation"`
}

// Explain reports where facts (fact syntax, period-terminated) in the most
// recent apply's fixpoint (or that of the one AtState selected) came from.
func (c *Client) Explain(ctx context.Context, facts string) ([]ExplainEntry, error) {
	b, err := c.do(ctx, http.MethodPost, c.api("/explain")+c.stateParam("?"), facts)
	if err != nil {
		return nil, err
	}
	var resp struct {
		Entries []ExplainEntry `json:"entries"`
	}
	return resp.Entries, json.Unmarshal(b, &resp)
}

// SpanAttr is one key/value annotation on a trace span.
type SpanAttr struct {
	Key   string `json:"key"`
	Value any    `json:"value"`
}

// Span is one timed operation in a trace: its offset from the trace
// start and duration (microseconds), annotations, and nested child spans.
type Span struct {
	Name     string     `json:"name"`
	StartUS  int64      `json:"start_us"`
	DurUS    int64      `json:"dur_us"`
	Attrs    []SpanAttr `json:"attrs,omitempty"`
	Children []*Span    `json:"children,omitempty"`
}

// Trace is one apply's span tree as recorded by the server: parse,
// safety, stratification, every stratum's iterations down to per-rule
// matching, the copy phase, constraints and commit.
type Trace struct {
	ID    string            `json:"id"`
	Name  string            `json:"name"`
	Start time.Time         `json:"start"`
	DurUS int64             `json:"dur_us"`
	Meta  map[string]string `json:"meta,omitempty"`
	Root  *Span             `json:"root"`
}

// RuleStat is one rule's firing statistics from a traced apply, ordered
// hottest first by the server.
type RuleStat struct {
	Rule       string `json:"rule"`
	Stratum    int    `json:"stratum"`
	Fired      int    `json:"fired"`
	Emitted    int    `json:"emitted"`
	Matched    int    `json:"matched"`
	Iterations int    `json:"iterations"`
	TimeUS     int64  `json:"time_us"`
}

// TracedApplyResult is an ApplyResult extended with the apply's span tree
// and per-rule hot list. Replayed applies carry no trace.
type TracedApplyResult struct {
	ApplyResult
	Trace *Trace     `json:"trace"`
	Rules []RuleStat `json:"rules"`
}

// ApplyTraced is Apply with server-side evaluation tracing: the result
// carries the full span tree and the per-rule firing statistics. The
// server also retains the trace in its /v1/debug/traces ring under
// Trace.ID.
func (c *Client) ApplyTraced(ctx context.Context, program string) (*TracedApplyResult, error) {
	b, err := c.doKey(ctx, http.MethodPost, c.api("/apply?trace=1"), program, newIdempotencyKey())
	if err != nil {
		return nil, err
	}
	var out TracedApplyResult
	return &out, json.Unmarshal(b, &out)
}

// TraceSummary is one retained trace in the server's ring listing.
type TraceSummary struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	RequestID  string    `json:"request_id"`
	Outcome    string    `json:"outcome"`
}

// Traces lists the server's recently retained apply traces, newest first
// (limit <= 0 returns the whole ring).
func (c *Client) Traces(ctx context.Context, limit int) ([]TraceSummary, error) {
	q := "/v1/debug/traces"
	if limit > 0 {
		q += "?limit=" + strconv.Itoa(limit)
	}
	b, err := c.do(ctx, http.MethodGet, q, "")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Entries []TraceSummary `json:"entries"`
	}
	return resp.Entries, json.Unmarshal(b, &resp)
}

// Trace fetches one retained trace's full span tree by id.
func (c *Client) Trace(ctx context.Context, id string) (*Trace, error) {
	b, err := c.do(ctx, http.MethodGet, "/v1/debug/traces?id="+id, "")
	if err != nil {
		return nil, err
	}
	var out Trace
	return &out, json.Unmarshal(b, &out)
}

// TraceChrome fetches one retained trace in Chrome trace_event JSON,
// ready to load into chrome://tracing or https://ui.perfetto.dev.
func (c *Client) TraceChrome(ctx context.Context, id string) ([]byte, error) {
	return c.do(ctx, http.MethodGet, "/v1/debug/traces?id="+id+"&format=chrome", "")
}

// ExplainStep is one link in a fact's provenance chain.
type ExplainStep struct {
	Fact       string `json:"fact"`
	Provenance string `json:"provenance"` // input, update, copy, unknown
	Rule       string `json:"rule,omitempty"`
	Stratum    int    `json:"stratum,omitempty"`
	Iteration  int    `json:"iteration,omitempty"`
	Update     string `json:"update,omitempty"`
	CopiedFrom string `json:"copied_from,omitempty"`
}

// ExplainChain is the provenance of one fact walked back to its origin:
// Chain[0] is the fact itself, the last step is the update that fired or
// the input base.
type ExplainChain struct {
	Fact  string        `json:"fact"`
	Chain []ExplainStep `json:"chain"`
}

// ExplainVersion reports the provenance of every fact vid.method -> ...
// in the most recent apply's fixpoint (or that of the one AtState selected),
// each walked back through the copy chain to the version that introduced it.
func (c *Client) ExplainVersion(ctx context.Context, vid, method string) ([]ExplainChain, error) {
	b, err := c.do(ctx, http.MethodGet,
		c.api("/explain?vid="+url.QueryEscape(vid)+"&method="+url.QueryEscape(method))+c.stateParam("&"), "")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Facts []ExplainChain `json:"facts"`
	}
	return resp.Facts, json.Unmarshal(b, &resp)
}

// SlowEntry is one slow request from the server's /v1/debug/slow log.
type SlowEntry struct {
	RequestID  string  `json:"request_id"`
	Method     string  `json:"method"`
	Path       string  `json:"path"`
	Status     int     `json:"status"`
	DurationMS float64 `json:"duration_ms"`
	Detail     string  `json:"detail"`
	TraceID    string  `json:"trace_id"`
	// Tenant is the request's tenant (capped server-side; the long tail
	// reports "other"), "" outside the /v1/t/ subtree.
	Tenant string `json:"tenant"`
}

// Slow fetches the server's recent slow requests (newest first).
func (c *Client) Slow(ctx context.Context) ([]SlowEntry, error) {
	b, err := c.do(ctx, http.MethodGet, "/v1/debug/slow", "")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Entries []SlowEntry `json:"entries"`
	}
	return resp.Entries, json.Unmarshal(b, &resp)
}

// TenantInfo is one row of the server's tenant listing. Seq and Facts are
// present only while the tenant is resident (the server never opens a
// repository just to list it).
type TenantInfo struct {
	Name      string `json:"name"`
	Resident  bool   `json:"resident"`
	Seq       *int   `json:"seq,omitempty"`
	Facts     *int   `json:"facts,omitempty"`
	SizeBytes int64  `json:"size_bytes"`
}

// Tenants lists every tenant the server knows (GET /v1/tenants).
func (c *Client) Tenants(ctx context.Context) ([]TenantInfo, error) {
	b, err := c.do(ctx, http.MethodGet, "/v1/tenants", "")
	if err != nil {
		return nil, err
	}
	var resp struct {
		Tenants []TenantInfo `json:"tenants"`
	}
	return resp.Tenants, json.Unmarshal(b, &resp)
}

// DeleteTenant deletes the named tenant and its data (DELETE
// /v1/t/{name}). The server must run with -allow-tenant-delete; a tenant
// with requests in flight answers 409 conflict.
func (c *Client) DeleteTenant(ctx context.Context, name string) error {
	_, err := c.do(ctx, http.MethodDelete, "/v1/t/"+name, "")
	return err
}

// Metrics fetches the raw Prometheus text exposition from /metrics.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	b, err := c.do(ctx, http.MethodGet, "/metrics", "")
	return string(b), err
}

// ReplFollower is one row of a primary's follower table.
type ReplFollower struct {
	ID         string  `json:"id"`
	AckSeq     int     `json:"ack_seq"`
	LagSeq     int     `json:"lag_seq"`
	AgeSeconds float64 `json:"age_seconds"`
}

// ReplStatus is a node's replication state from /v1/repl/status.
type ReplStatus struct {
	Role        string         `json:"role"` // "primary" or "follower"
	Epoch       uint64         `json:"epoch"`
	HeadSeq     int            `json:"head_seq"`
	SnapshotSeq int            `json:"snapshot_seq"`
	Primary     string         `json:"primary"`
	Connected   bool           `json:"connected"`
	Fenced      bool           `json:"fenced"`
	LagSeq      int            `json:"lag_seq"`
	LagSeconds  float64        `json:"lag_seconds"`
	LastError   string         `json:"last_error"`
	EverSynced  bool           `json:"ever_synced"`
	Followers   []ReplFollower `json:"followers"`
}

// ReplStatusOf fetches the replication status of one specific endpoint
// (no failover — status questions are about a particular node).
func (c *Client) ReplStatusOf(ctx context.Context, endpoint string) (*ReplStatus, error) {
	b, err := c.attempt(ctx, strings.TrimRight(endpoint, "/"), http.MethodGet, "/v1/repl/status", "", "", randomHex(8))
	if err != nil {
		return nil, err
	}
	var out ReplStatus
	return &out, json.Unmarshal(b, &out)
}

// ReplStatus fetches the replication status of the current endpoint.
func (c *Client) ReplStatus(ctx context.Context) (*ReplStatus, error) {
	return c.ReplStatusOf(ctx, c.current())
}

// PromoteResult reports a completed promotion.
type PromoteResult struct {
	Role    string `json:"role"`
	Epoch   uint64 `json:"epoch"`
	HeadSeq int    `json:"head_seq"`
}

// Promote promotes the node at endpoint to primary (POST
// /v1/repl/promote) and retargets this client's writes at it. Promotion
// is deliberately endpoint-specific: failover chooses WHICH follower
// takes over, so it never rotates.
func (c *Client) Promote(ctx context.Context, endpoint string) (*PromoteResult, error) {
	endpoint = strings.TrimRight(endpoint, "/")
	b, err := c.attempt(ctx, endpoint, http.MethodPost, "/v1/repl/promote", "", "", randomHex(8))
	if err != nil {
		return nil, err
	}
	var out PromoteResult
	if err := json.Unmarshal(b, &out); err != nil {
		return nil, err
	}
	c.setPrimary(endpoint)
	return &out, nil
}
