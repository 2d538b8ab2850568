package client

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"
)

// This file is the fleet-observability side of the client: typed access
// to /v1/status and /v1/readyz, and the one-line-per-node fleet table
// `verlog status` prints (also written by the replication soak test as a
// build artifact).

// HealthCheck is one named readiness probe's outcome from /v1/readyz or
// /v1/status ("repo", "fenced", "repl_lag", "tenants").
type HealthCheck struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// WindowStats is a sliding-window SLO reading (~the last minute).
type WindowStats struct {
	WindowSeconds float64 `json:"window_seconds"`
	Count         int64   `json:"count"`
	Errors        int64   `json:"errors"`
	Rate          float64 `json:"rate"`
	ErrorRate     float64 `json:"error_rate"`
	P50MS         float64 `json:"p50_ms"`
	P95MS         float64 `json:"p95_ms"`
	P99MS         float64 `json:"p99_ms"`
}

// TenantsStatus is the tenant-manager section of a node's status.
type TenantsStatus struct {
	Resident    int              `json:"resident"`
	MaxOpen     int              `json:"max_open"`
	MaxResident int              `json:"max_resident"`
	Opens       int64            `json:"opens"`
	Evictions   int64            `json:"evictions"`
	Requests    map[string]int64 `json:"requests"`
}

// CommitBatchStats summarizes a node's group-commit pipeline.
type CommitBatchStats struct {
	Batches       int64   `json:"batches"`
	Records       int64   `json:"records"`
	MeanBatchSize float64 `json:"mean_batch_size"`
	LastBatchSize float64 `json:"last_batch_size"`
}

// HotRule is one row of a node's cumulative per-rule stats table,
// hottest first by match time.
type HotRule struct {
	Rule    string `json:"rule"`
	Applies int64  `json:"applies"`
	Fired   int64  `json:"fired"`
	Emitted int64  `json:"emitted"`
	Matched int64  `json:"matched"`
	TimeUS  int64  `json:"time_us"`
}

// NodeStatus is one node's /v1/status snapshot.
type NodeStatus struct {
	Version         string           `json:"version"`
	Commit          string           `json:"commit"`
	GoVersion       string           `json:"go_version"`
	StartedAt       time.Time        `json:"started_at"`
	UptimeSeconds   float64          `json:"uptime_seconds"`
	Role            string           `json:"role"` // primary | follower | standalone
	Epoch           uint64           `json:"epoch"`
	HeadSeq         int              `json:"head_seq"`
	SnapshotSeq     int              `json:"snapshot_seq"`
	JournalSeq      int              `json:"journal_seq"`
	JournalBytes    int64            `json:"journal_bytes"`
	HistoryBytes    int64            `json:"resident_history_bytes"`
	Ready           bool             `json:"ready"`
	Checks          []HealthCheck    `json:"checks"`
	Replication     *ReplStatus      `json:"replication"`
	Tenants         TenantsStatus    `json:"tenants"`
	CommitBatches   CommitBatchStats `json:"commit_batches"`
	ApplyWindow     WindowStats      `json:"apply_window"`
	QueryWindow     WindowStats      `json:"query_window"`
	HTTPWindow      WindowStats      `json:"http_window"`
	HotRules        []HotRule        `json:"hot_rules"`
	Deprecated      int64            `json:"deprecated_requests"`
	SlowTotal       int64            `json:"slow_total"`
	SlowThresholdMS float64          `json:"slow_threshold_ms"`
}

// FailingChecks returns the names of the checks that are not OK.
func (s *NodeStatus) FailingChecks() []string {
	var out []string
	for _, c := range s.Checks {
		if !c.OK {
			out = append(out, c.Name)
		}
	}
	return out
}

// StatusOf fetches the full status snapshot of one specific endpoint (no
// failover — status questions are about a particular node).
func (c *Client) StatusOf(ctx context.Context, endpoint string) (*NodeStatus, error) {
	b, err := c.attempt(ctx, strings.TrimRight(endpoint, "/"), http.MethodGet, "/v1/status", "", "", randomHex(8))
	if err != nil {
		return nil, err
	}
	var out NodeStatus
	return &out, json.Unmarshal(b, &out)
}

// Status fetches the status snapshot of the current endpoint.
func (c *Client) Status(ctx context.Context) (*NodeStatus, error) {
	return c.StatusOf(ctx, c.current())
}

// HealthyOf asks one specific endpoint's /v1/readyz and returns nil when
// it is ready, or an error naming the failing checks.
func (c *Client) HealthyOf(ctx context.Context, endpoint string) error {
	_, err := c.attempt(ctx, strings.TrimRight(endpoint, "/"), http.MethodGet, "/v1/readyz", "", "", randomHex(8))
	if err == nil {
		return nil
	}
	var ae *APIError
	if errors.As(err, &ae) && ae.StatusCode == http.StatusServiceUnavailable {
		// The 503 body is the readiness report, not the error envelope.
		var rr struct {
			Checks []HealthCheck `json:"checks"`
		}
		if json.Unmarshal([]byte(ae.Message), &rr) == nil && len(rr.Checks) > 0 {
			var parts []string
			for _, chk := range rr.Checks {
				if !chk.OK {
					parts = append(parts, chk.Name+": "+chk.Detail)
				}
			}
			if len(parts) > 0 {
				return fmt.Errorf("verlog server not ready: %s", strings.Join(parts, "; "))
			}
		}
	}
	return err
}

// Healthy asks the current endpoint's /v1/readyz; nil means ready.
func (c *Client) Healthy(ctx context.Context) error {
	return c.HealthyOf(ctx, c.current())
}

// FleetRow is one node's line in the fleet table: its status snapshot,
// or the error that kept it out of reach.
type FleetRow struct {
	Endpoint string
	Status   *NodeStatus
	Err      error
}

// FleetStatus fetches every endpoint's status concurrently. Unreachable
// nodes get an Err row instead of failing the sweep — a fleet table with
// a dead node in it is exactly what the operator needs to see.
func (c *Client) FleetStatus(ctx context.Context) []FleetRow {
	rows := make([]FleetRow, len(c.endpoints))
	done := make(chan int, len(c.endpoints))
	for i, ep := range c.endpoints {
		go func(i int, ep string) {
			st, err := c.StatusOf(ctx, ep)
			rows[i] = FleetRow{Endpoint: ep, Status: st, Err: err}
			done <- i
		}(i, ep)
	}
	for range c.endpoints {
		<-done
	}
	return rows
}

// FleetTable renders one line per node: role, epoch, head seq, lag,
// tenants, p99 and readiness — the `verlog status` output.
func FleetTable(rows []FleetRow) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "NODE\tROLE\tEPOCH\tHEAD\tLAG\tTENANTS\tP99(MS)\tREQ/S\tREADY")
	for _, row := range rows {
		if row.Err != nil {
			fmt.Fprintf(w, "%s\tdown\t-\t-\t-\t-\t-\t-\tNO (%s)\n", row.Endpoint, shortErr(row.Err))
			continue
		}
		st := row.Status
		ready := "yes"
		if !st.Ready {
			ready = "NO (" + strings.Join(st.FailingChecks(), ",") + ")"
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%s\t%d\t%.1f\t%.1f\t%s\n",
			row.Endpoint, st.Role, st.Epoch, st.HeadSeq, lagOf(st),
			st.Tenants.Resident, st.HTTPWindow.P99MS, st.HTTPWindow.Rate, ready)
	}
	w.Flush()
	return b.String()
}

// lagOf summarizes a node's replication lag for the table: a follower's
// own seq lag, a primary's worst follower lag, "-" without replication.
func lagOf(st *NodeStatus) string {
	r := st.Replication
	if r == nil {
		return "-"
	}
	if r.Role == "follower" {
		return strconv.Itoa(r.LagSeq)
	}
	worst := 0
	for _, f := range r.Followers {
		if f.LagSeq > worst {
			worst = f.LagSeq
		}
	}
	return strconv.Itoa(worst)
}

// shortErr compresses a transport error to fit a table cell.
func shortErr(err error) string {
	msg := err.Error()
	// The usual shape is `Get "http://...": dial tcp ...: connect: ...`;
	// the last segment is the interesting one.
	if i := strings.LastIndex(msg, ": "); i >= 0 && i+2 < len(msg) {
		msg = msg[i+2:]
	}
	if len(msg) > 40 {
		msg = msg[:40] + "…"
	}
	return msg
}

// TopData is one poll of the data `verlog top` renders: the node status
// plus the recent slow requests.
type TopData struct {
	Status *NodeStatus
	Slow   []SlowEntry
}

// TopPoll gathers one `verlog top` frame from the current endpoint.
func (c *Client) TopPoll(ctx context.Context) (*TopData, error) {
	st, err := c.Status(ctx)
	if err != nil {
		return nil, err
	}
	slow, err := c.Slow(ctx)
	if err != nil {
		return nil, err
	}
	return &TopData{Status: st, Slow: slow}, nil
}

// TenantRates computes per-tenant request rates (per second) between two
// status snapshots, sorted busiest first. prev may be nil (all zeros).
func TenantRates(prev, cur *NodeStatus, elapsed time.Duration) []TenantRate {
	sec := elapsed.Seconds()
	var out []TenantRate
	for name, total := range cur.Tenants.Requests {
		tr := TenantRate{Tenant: name, Total: total}
		if prev != nil && sec > 0 {
			if p, ok := prev.Tenants.Requests[name]; ok && total >= p {
				tr.Rate = float64(total-p) / sec
			}
		}
		out = append(out, tr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Rate != out[j].Rate {
			return out[i].Rate > out[j].Rate
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// TenantRate is one tenant's request rate between two polls.
type TenantRate struct {
	Tenant string
	Total  int64
	Rate   float64
}
