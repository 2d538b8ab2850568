package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"verlog/internal/eval"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/safety"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// Machine-readable error codes carried by every /v1 error envelope. They
// are part of the API contract: clients branch on the code, the message is
// for humans.
const (
	// CodeParseError: the program, query or fact text did not parse.
	CodeParseError = "parse_error"
	// CodeUnsafeRule: a rule fails the safety conditions of Section 4.
	CodeUnsafeRule = "unsafe_rule"
	// CodeNotStratifiable: no stratification satisfies conditions (a)-(d).
	CodeNotStratifiable = "not_stratifiable"
	// CodeNotLinear: the fixpoint violates version-linearity (Section 5).
	CodeNotLinear = "not_linear"
	// CodeIterationLimit: a stratum did not reach its fixpoint in bounds.
	CodeIterationLimit = "iteration_limit"
	// CodeConstraintViolation: an integrity constraint rejected the update.
	CodeConstraintViolation = "constraint_violation"
	// CodeConflict: the request conflicts with repository state.
	CodeConflict = "conflict"
	// CodeBadRequest: a missing or malformed parameter or body.
	CodeBadRequest = "bad_request"
	// CodeNotFound: no such state, object history or route.
	CodeNotFound = "not_found"
	// CodeMethodNotAllowed: the route exists but not for this method.
	CodeMethodNotAllowed = "method_not_allowed"
	// CodePayloadTooLarge: the request body exceeds the server limit.
	CodePayloadTooLarge = "payload_too_large"
	// CodeInvalidTenant: the tenant name in the URL is outside the grammar
	// [a-z0-9][a-z0-9-_]{0,63}.
	CodeInvalidTenant = "invalid_tenant"
	// CodeTenantNotFound: no such tenant (and the request does not create
	// one — only POST apply/constraints create tenants on first write).
	CodeTenantNotFound = "tenant_not_found"
	// CodeTooManyTenants: the open-tenant cap is reached and every resident
	// tenant is busy; retry later.
	CodeTooManyTenants = "too_many_tenants"
	// CodeForbidden: the operation is disabled by server configuration
	// (e.g. DELETE /v1/t/{tenant} without -allow-tenant-delete).
	CodeForbidden = "forbidden"
	// CodeReadOnly: this node is a replication follower; writes must go to
	// the primary (the envelope's "primary" field carries its base URL).
	CodeReadOnly = "read_only"
	// CodeSnapshotRequired: the requested replication resume point
	// predates the primary's snapshot; bootstrap via /v1/repl/snapshot.
	CodeSnapshotRequired = "snapshot_required"
	// CodeDiverged: a journal entry's program, re-evaluated for history,
	// explain or a past state, does not reproduce the digest or the counts
	// the entry holds.
	CodeDiverged = "journal_diverged"
	// CodeJournalUnwritable: a journal append failed and could not be cut
	// back; the tenant serves reads and refuses writes until it is reopened.
	CodeJournalUnwritable = "journal_unwritable"
	// CodeInternal: an unexpected server-side failure.
	CodeInternal = "internal"
)

// errorBody is the inner object of the error envelope. Position is present
// when the error originates in program text (parse, safety and
// stratification rejections), so clients can point at the offending line.
type errorBody struct {
	Code     string    `json:"code"`
	Message  string    `json:"message"`
	Position *term.Pos `json:"position,omitempty"`
	// Primary is the primary's base URL on read_only rejections, so a
	// client can redirect the write without a discovery round trip.
	Primary   string `json:"primary,omitempty"`
	RequestID string `json:"request_id,omitempty"`
}

// errorEnvelope is the one JSON error shape every /v1 endpoint returns:
// {"error":{"code":"...","message":"...","request_id":"..."}}.
type errorEnvelope struct {
	Error errorBody `json:"error"`
}

// classify maps a domain error to its HTTP status and machine code:
// syntax, safety and stratification problems are the client's fault; a
// result that violates linearity or the iteration bound is semantically
// unprocessable; constraint violations are conflicts; the rest is internal.
func classify(err error) (int, string) {
	var se *parser.SyntaxError
	var re *safety.RuleError
	var ne *strata.NotStratifiableError
	var le *eval.LinearityError
	var ie *eval.IterationLimitError
	var cv *repository.ConstraintViolationError
	switch {
	case errors.As(err, &se):
		return http.StatusBadRequest, CodeParseError
	case errors.As(err, &re):
		return http.StatusBadRequest, CodeUnsafeRule
	case errors.As(err, &ne):
		return http.StatusUnprocessableEntity, CodeNotStratifiable
	case errors.As(err, &le):
		return http.StatusUnprocessableEntity, CodeNotLinear
	case errors.As(err, &ie):
		return http.StatusUnprocessableEntity, CodeIterationLimit
	case errors.As(err, &cv):
		return http.StatusConflict, CodeConstraintViolation
	case errors.Is(err, repository.ErrNoSuchState):
		return http.StatusNotFound, CodeNotFound
	case errors.Is(err, repository.ErrDiverged):
		return http.StatusInternalServerError, CodeDiverged
	case errors.Is(err, repository.ErrJournalUnwritable):
		return http.StatusServiceUnavailable, CodeJournalUnwritable
	default:
		return http.StatusInternalServerError, CodeInternal
	}
}

// errorPos extracts the source position of a program-text error, or nil
// when the error carries none (or the position is the zero placeholder of
// a programmatic rule).
func errorPos(err error) *term.Pos {
	var se *parser.SyntaxError
	var re *safety.RuleError
	var ne *strata.NotStratifiableError
	var pos term.Pos
	switch {
	case errors.As(err, &se):
		pos = se.Pos()
	case errors.As(err, &re):
		pos = re.Pos
	case errors.As(err, &ne):
		pos = ne.Pos
	}
	if !pos.IsValid() {
		return nil
	}
	return &pos
}

// writeErrorCode writes the envelope with an explicit status and code.
func writeErrorCode(w http.ResponseWriter, r *http.Request, status int, code string, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	enc.Encode(errorEnvelope{Error: errorBody{
		Code: code, Message: err.Error(), Position: errorPos(err),
		RequestID: RequestID(r.Context()),
	}})
}

// writeError classifies err and writes the envelope.
func writeError(w http.ResponseWriter, r *http.Request, err error) {
	status, code := classify(err)
	writeErrorCode(w, r, status, code, err)
}
