package server

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"time"

	"verlog/internal/eval"
	"verlog/internal/obs"
	"verlog/internal/replication"
)

// This file is the fleet-observability surface: GET /v1/healthz (am I
// alive), GET /v1/readyz (should a load balancer route to me), and
// GET /v1/status (one JSON snapshot of everything an operator wants to
// know about a node). `verlog status` and `verlog top` are thin clients
// over /v1/status.

// registerChecks installs the named readiness probes. Check names are
// API: docs/API.md lists them, tests and load-balancer dashboards key on
// them.
func (s *Server) registerChecks() {
	// repo: the default tenant's repository answers reads. Open-time
	// recovery completed before the server existed; this catches a closed
	// or failing repository afterwards.
	s.checks.Register("repo", func() error {
		_, err := s.def.Repo().Head()
		return err
	})
	if s.repl != nil {
		// fenced: a deposed primary (or stale follower) that observed a
		// newer epoch must not serve reads as if it were current.
		s.checks.Register("fenced", func() error {
			if st := s.repl.Status(); st.Fenced {
				return fmt.Errorf("fenced at epoch %d: a newer epoch exists upstream (%s)", st.Epoch, st.Primary)
			}
			return nil
		})
		// repl_lag: a follower too far behind its primary should stop
		// taking reads until it catches up.
		s.checks.Register("repl_lag", func() error { return s.checkReplLag() })
	}
	if s.tenants.MaxOpen() > 0 {
		// tenants: residency at the hard cap with every slot busy means
		// the next open of a non-resident tenant fails.
		s.checks.Register("tenants", func() error {
			max := s.tenants.MaxOpen()
			resident, busy := s.tenants.Pressure()
			if resident >= max && busy >= resident {
				return fmt.Errorf("%d/%d resident tenants, all busy; next open would fail", resident, max)
			}
			return nil
		})
	}
}

func (s *Server) checkReplLag() error {
	st := s.repl.Status()
	if st.Role != "follower" {
		return nil
	}
	if !st.EverSynced {
		if st.LastError != "" {
			return fmt.Errorf("never synced with %s: %s", st.Primary, st.LastError)
		}
		return fmt.Errorf("never synced with %s", st.Primary)
	}
	if s.readyMaxLag > 0 && st.LagSeq > s.readyMaxLag {
		return fmt.Errorf("%d seqs behind %s (max %d)", st.LagSeq, st.Primary, s.readyMaxLag)
	}
	// The age test applies only while the stream is down: on an idle
	// topology a healthy long-poll parks for its full wait, so the last
	// completed sync legitimately ages by PollWait between exchanges —
	// that staleness is not the follower's fault and must not flap
	// readiness. A dead primary breaks the stream (Connected false) and
	// then the aging clock counts.
	if s.readyMaxAge > 0 && !st.Connected && st.LagSeconds > s.readyMaxAge.Seconds() {
		return fmt.Errorf("stream down, last sync %.1fs ago (max %s): %s", st.LagSeconds, s.readyMaxAge, st.LastError)
	}
	return nil
}

// handleHealthz is pure liveness: the process accepts connections and can
// marshal a response. It never inspects state — a fenced or lagging node
// is alive, just not ready.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]string{"status": "ok"})
}

// readyResponse is the /v1/readyz payload: the conjunction plus every
// probe's individual outcome, so the 503 body says which check failed.
type readyResponse struct {
	Ready  bool              `json:"ready"`
	Checks []obs.CheckResult `json:"checks"`
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	results, ok := s.checks.Run()
	if results == nil {
		results = []obs.CheckResult{}
	}
	w.Header().Set("Content-Type", "application/json")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	writeJSON(w, readyResponse{Ready: ok, Checks: results})
}

// hotRule is one row of the cumulative per-rule stats table: eval.RuleStat
// summed across every traced apply since process start.
type hotRule struct {
	Rule    string `json:"rule"`
	Applies int64  `json:"applies"`
	Fired   int64  `json:"fired"`
	Emitted int64  `json:"emitted"`
	Matched int64  `json:"matched"`
	TimeUS  int64  `json:"time_us"`
}

// recordRuleStats folds one apply's per-rule stats into the bounded
// cumulative table. Rules beyond the cap share one "other" row, so a
// workload generating unique rule names cannot grow the table unboundedly.
func (s *Server) recordRuleStats(stats []eval.RuleStat) {
	if len(stats) == 0 {
		return
	}
	s.hotMu.Lock()
	defer s.hotMu.Unlock()
	for _, rs := range stats {
		key := rs.Rule
		agg, ok := s.hotRules[key]
		if !ok {
			if len(s.hotRules) >= hotRuleCap {
				key = "other"
				agg = s.hotRules[key]
			}
			if agg == nil {
				agg = &hotRule{Rule: key}
				s.hotRules[key] = agg
			}
		}
		agg.Applies++
		agg.Fired += int64(rs.Fired)
		agg.Emitted += int64(rs.Emitted)
		agg.Matched += int64(rs.Matched)
		agg.TimeUS += rs.TimeUS
	}
}

// topRules returns the n most expensive rules by cumulative match time.
func (s *Server) topRules(n int) []hotRule {
	s.hotMu.Lock()
	out := make([]hotRule, 0, len(s.hotRules))
	for _, agg := range s.hotRules {
		out = append(out, *agg)
	}
	s.hotMu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].TimeUS != out[j].TimeUS {
			return out[i].TimeUS > out[j].TimeUS
		}
		return out[i].Rule < out[j].Rule
	})
	if len(out) > n {
		out = out[:n]
	}
	return out
}

// tenantsStatus is the tenant-manager section of /v1/status.
type tenantsStatus struct {
	Resident    int   `json:"resident"`
	MaxOpen     int   `json:"max_open"`
	MaxResident int   `json:"max_resident"`
	Opens       int64 `json:"opens"`
	Evictions   int64 `json:"evictions"`
	// Requests maps each tenant (capped label; the long tail is "other")
	// to its lifetime request total. Pollers diff successive snapshots to
	// get per-tenant rates.
	Requests map[string]int64 `json:"requests,omitempty"`
}

// commitBatchStatus summarizes the group-commit pipeline of the default
// tenant's repository (all tenants share the counter families, so on a
// multi-tenant node these are process-wide sums).
type commitBatchStatus struct {
	Batches       int64   `json:"batches"`
	Records       int64   `json:"records"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	LastBatchSize float64 `json:"last_batch_size"`
}

// nodeStatus is the /v1/status payload: one self-describing snapshot per
// node; the fleet table is N of these side by side. Mirrored by
// client.NodeStatus — field changes must be reflected there and in
// docs/API.md. JournalBytes is the default tenant's journal file size and
// ResidentHistoryBytes what its entries since the snapshot hold in memory:
// both grow with every update until Compact folds the history away.
type nodeStatus struct {
	Version         string              `json:"version"`
	Commit          string              `json:"commit,omitempty"`
	GoVersion       string              `json:"go_version"`
	StartedAt       time.Time           `json:"started_at"`
	UptimeSeconds   float64             `json:"uptime_seconds"`
	Role            string              `json:"role"` // primary | follower | standalone
	Epoch           uint64              `json:"epoch"`
	HeadSeq         int                 `json:"head_seq"`
	SnapshotSeq     int                 `json:"snapshot_seq"`
	JournalSeq      int                 `json:"journal_seq"`
	JournalBytes    int64               `json:"journal_bytes"`
	HistoryBytes    int64               `json:"resident_history_bytes"`
	Ready           bool                `json:"ready"`
	Checks          []obs.CheckResult   `json:"checks"`
	Replication     *replication.Status `json:"replication,omitempty"`
	Tenants         tenantsStatus       `json:"tenants"`
	CommitBatches   commitBatchStatus   `json:"commit_batches"`
	ApplyWindow     obs.WindowStats     `json:"apply_window"`
	QueryWindow     obs.WindowStats     `json:"query_window"`
	HTTPWindow      obs.WindowStats     `json:"http_window"`
	HotRules        []hotRule           `json:"hot_rules,omitempty"`
	SlowTotal       int64               `json:"slow_total"`
	SlowThresholdMS float64             `json:"slow_threshold_ms"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	version, commit := obs.BuildInfo()
	repo := s.def.Repo()
	snap := repo.SnapshotSeq()
	n := repo.Len()
	resident, opens, evictions, maxResident := s.tenants.Stats()
	journalBytes, historyBytes := repo.HistoryBytes()

	results, ready := s.checks.Run()
	if results == nil {
		results = []obs.CheckResult{}
	}

	st := nodeStatus{
		Version:       version,
		Commit:        commit,
		GoVersion:     runtime.Version(),
		StartedAt:     s.started,
		UptimeSeconds: time.Since(s.started).Seconds(),
		Role:          "standalone",
		Epoch:         repo.Epoch(),
		HeadSeq:       snap + n,
		SnapshotSeq:   snap,
		JournalSeq:    snap + len(repo.Log()),
		JournalBytes:  journalBytes,
		HistoryBytes:  historyBytes,
		Ready:         ready,
		Checks:        results,
		Tenants: tenantsStatus{
			Resident:    resident,
			MaxOpen:     s.tenants.MaxOpen(),
			MaxResident: maxResident,
			Opens:       opens,
			Evictions:   evictions,
			Requests:    s.tenantRequestTotals(),
		},
		CommitBatches:   s.commitBatchStatus(),
		ApplyWindow:     s.applyWin.Stats(),
		QueryWindow:     s.queryWin.Stats(),
		HTTPWindow:      s.httpWin.Stats(),
		HotRules:        s.topRules(20),
		SlowTotal:       s.slow.Total(),
		SlowThresholdMS: float64(s.slowThreshold) / float64(time.Millisecond),
	}
	if s.repl != nil {
		rs := s.repl.Status()
		st.Role = rs.Role
		st.Epoch = rs.Epoch
		st.Replication = &rs
	}
	writeJSON(w, st)
}

// tenantRequestTotals snapshots the per-tenant request counters.
func (s *Server) tenantRequestTotals() map[string]int64 {
	s.tenantReqMu.Lock()
	defer s.tenantReqMu.Unlock()
	if len(s.tenantReqs) == 0 {
		return nil
	}
	out := make(map[string]int64, len(s.tenantReqs))
	for label, c := range s.tenantReqs {
		out[label] = c.Value()
	}
	return out
}

// commitBatchStatus reads the group-commit counters back out of the
// registry (Counter/Gauge are get-or-create, so these are the same
// instruments the repositories write; name and help must match
// internal/repository/metrics.go).
func (s *Server) commitBatchStatus() commitBatchStatus {
	batches := s.reg.Counter("verlog_commit_batches_total",
		"Group-commit batches flushed (one fsync each).").Value()
	records := s.reg.Counter("verlog_commit_batch_records_total",
		"Journal records flushed across all group-commit batches.").Value()
	cb := commitBatchStatus{
		Batches: batches,
		Records: records,
		LastBatchSize: s.reg.Gauge("verlog_commit_batch_size",
			"Journal records in the last group-commit batch.").Value(),
	}
	if batches > 0 {
		cb.MeanBatchSize = float64(records) / float64(batches)
	}
	return cb
}
