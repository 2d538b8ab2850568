package server

import (
	"errors"
	"fmt"
	"net/http"
	"strings"

	"verlog/internal/tenant"
)

// Tenant routing. One dispatcher owns the /v1/t/ subtree: it parses
// /v1/t/{tenant}[/{suffix}], validates the name, acquires the tenant
// (creating it on first write), and serves the suffix from the handler
// table tenantRoute fills. The route label recorded for metrics is always
// the pattern form — never a concrete tenant name — so route cardinality
// stays fixed.

// dispatchTenant serves every /v1/t/{tenant}/... request.
func (s *Server) dispatchTenant(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/t/")
	name, suffix, _ := strings.Cut(rest, "/")
	if !tenant.ValidName(name) {
		writeErrorCode(w, r, http.StatusBadRequest, CodeInvalidTenant,
			fmt.Errorf("server: invalid tenant name %q (want [a-z0-9][a-z0-9-_]{0,63})", name))
		return
	}
	if suffix == "" {
		// Bare /v1/t/{tenant}: only the management verb lives here.
		s.setRoute(r, "/v1/t/{tenant}", name)
		if r.Method != http.MethodDelete {
			writeMethodNotAllowed(w, r, "/v1/t/{tenant}", "DELETE")
			return
		}
		s.handleTenantDelete(name, w, r)
		return
	}
	m, ok := s.tenantRoutes[suffix]
	if !ok {
		writeErrorCode(w, r, http.StatusNotFound, CodeNotFound,
			fmt.Errorf("server: no such route /v1/t/{tenant}/%s", suffix))
		return
	}
	s.setRoute(r, "/v1/t/{tenant}/"+suffix, name)
	h, ok := m[r.Method]
	if !ok {
		writeMethodNotAllowed(w, r, "/v1/t/{tenant}/"+suffix, allowHeader(m))
		return
	}
	// Only a first write creates a tenant; reads of an unknown one 404.
	create := r.Method == http.MethodPost && (suffix == "apply" || suffix == "constraints")
	tn, err := s.tenants.Acquire(name, create)
	if err != nil {
		writeTenantError(w, r, err)
		return
	}
	defer s.tenants.Release(tn)
	h(tn, w, r)
}

// setRoute records the pattern-form route and the tenant name in the
// request info, for the observability middleware.
func (s *Server) setRoute(r *http.Request, route, tenantName string) {
	if ri := info(r.Context()); ri != nil {
		ri.Route = route
		ri.Tenant = tenantName
	}
}

// writeTenantError maps tenant-manager errors onto the envelope codes.
func writeTenantError(w http.ResponseWriter, r *http.Request, err error) {
	switch {
	case errors.Is(err, tenant.ErrInvalidName):
		writeErrorCode(w, r, http.StatusBadRequest, CodeInvalidTenant, err)
	case errors.Is(err, tenant.ErrNotFound):
		writeErrorCode(w, r, http.StatusNotFound, CodeTenantNotFound, err)
	case errors.Is(err, tenant.ErrTooMany):
		writeErrorCode(w, r, http.StatusTooManyRequests, CodeTooManyTenants, err)
	case errors.Is(err, tenant.ErrBusy), errors.Is(err, tenant.ErrPinned):
		writeErrorCode(w, r, http.StatusConflict, CodeConflict, err)
	default:
		writeError(w, r, err)
	}
}

// tenantsResponse lists every tenant the server knows: directories under
// the tenants root plus adopted residents. Seq and facts are reported for
// resident tenants only — listing never faults a repository in.
type tenantsResponse struct {
	Tenants []tenant.Info `json:"tenants"`
}

func (s *Server) handleTenants(w http.ResponseWriter, r *http.Request) {
	infos, err := s.tenants.List()
	if err != nil {
		writeError(w, r, err)
		return
	}
	if infos == nil {
		infos = []tenant.Info{}
	}
	writeJSON(w, tenantsResponse{Tenants: infos})
}

// handleTenantDelete serves DELETE /v1/t/{tenant}: close the tenant and
// remove its directory. Gated by -allow-tenant-delete; busy and pinned
// tenants answer 409 conflict.
func (s *Server) handleTenantDelete(name string, w http.ResponseWriter, r *http.Request) {
	if s.rejectIfReadOnly(w, r) {
		return
	}
	if !s.allowDelete {
		writeErrorCode(w, r, http.StatusForbidden, CodeForbidden,
			errors.New("server: tenant deletion is disabled; start the server with -allow-tenant-delete"))
		return
	}
	if err := s.tenants.Delete(name); err != nil {
		writeTenantError(w, r, err)
		return
	}
	writeJSON(w, map[string]string{"deleted": name})
}
