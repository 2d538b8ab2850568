// Readiness-transition tests: /v1/readyz must track the replication
// lifecycle — a follower that has never synced or lags too far is not
// ready, promotion makes it ready, and a fenced deposed primary is not
// ready even though it is perfectly alive.
package replication_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"verlog/client"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/server"
)

// readyPayload mirrors the /v1/readyz body.
type readyPayload struct {
	Ready  bool `json:"ready"`
	Checks []struct {
		Name   string `json:"name"`
		OK     bool   `json:"ok"`
		Detail string `json:"detail"`
	} `json:"checks"`
}

// getReady fetches /v1/readyz and returns the HTTP code plus the parsed
// body (the 503 body is the same readiness report as the 200 one).
func getReady(t *testing.T, url string) (int, readyPayload) {
	t.Helper()
	resp, err := http.Get(url + "/v1/readyz")
	if err != nil {
		t.Fatalf("GET /v1/readyz: %v", err)
	}
	defer resp.Body.Close()
	var rp readyPayload
	if err := json.NewDecoder(resp.Body).Decode(&rp); err != nil {
		t.Fatalf("decode readyz body: %v", err)
	}
	return resp.StatusCode, rp
}

// failingCheck returns the detail of the named failing check, or "" when
// that check is absent or passing.
func failingCheck(rp readyPayload, name string) (string, bool) {
	for _, c := range rp.Checks {
		if c.Name == name && !c.OK {
			return c.Detail, true
		}
	}
	return "", false
}

// fakePrimary serves just enough of /v1/repl/stream for a follower's pull
// loop: fixed epoch and head headers, an empty record body. It lets tests
// pin the "primary's" head far ahead without generating real traffic.
func fakePrimary(t *testing.T, epoch uint64, headSeq int) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/repl/stream") {
			http.NotFound(w, r)
			return
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(epoch, 10))
		w.Header().Set(replication.HeaderSeq, strconv.Itoa(headSeq))
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// startObservedFollower starts a follower of primaryURL whose server has
// tight readiness bounds, so tests can flip readyz deterministically.
func startObservedFollower(t *testing.T, primaryURL string, maxLag int, maxAge time.Duration) *testNode {
	t.Helper()
	repo, err := repository.Init(t.TempDir()+"/follower", testBase(t))
	if err != nil {
		t.Fatalf("Init follower: %v", err)
	}
	n := replication.NewNode(repo, replication.Config{
		PrimaryURL: primaryURL,
		FollowerID: "ready-follower",
		PollWait:   100 * time.Millisecond,
	})
	srv := httptest.NewServer(server.New(repo,
		server.WithReplication(n),
		server.WithReadyMaxLag(maxLag, maxAge)))
	t.Cleanup(func() { n.Stop(); srv.Close() })
	return &testNode{repo: repo, node: n, srv: srv}
}

// TestReadyzFollowerLagTransitions: a follower is not ready before its
// first sync, not ready while lagging past -ready-max-lag, and ready the
// moment it is promoted to primary.
func TestReadyzFollowerLagTransitions(t *testing.T) {
	primary := fakePrimary(t, 1, 100)
	f := startObservedFollower(t, primary.URL, 10, time.Hour)

	// Before the pull loop starts the follower has never synced: 503, and
	// the repl_lag check names the reason.
	code, rp := getReady(t, f.srv.URL)
	if code != http.StatusServiceUnavailable || rp.Ready {
		t.Fatalf("readyz before first sync = %d ready=%v, want 503 not ready", code, rp.Ready)
	}
	if detail, failed := failingCheck(rp, "repl_lag"); !failed {
		t.Fatalf("repl_lag not failing before first sync; checks: %+v", rp.Checks)
	} else if !strings.Contains(detail, "never synced") {
		t.Fatalf("repl_lag detail = %q, want 'never synced'", detail)
	}

	// After syncing with a primary whose head is 100 seqs ahead, the node
	// has synced but lags far past the max of 10: still 503, now lag-shaped.
	f.node.Start()
	waitFor(t, "lag-based repl_lag failure", func() bool {
		code, rp := getReady(t, f.srv.URL)
		detail, failed := failingCheck(rp, "repl_lag")
		return code == http.StatusServiceUnavailable && failed &&
			strings.Contains(detail, "seqs behind")
	})

	// Liveness never wavered: healthz is about the process, not the role.
	resp, err := http.Get(f.srv.URL + "/v1/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/healthz = %v, %v; want 200", resp, err)
	}
	resp.Body.Close()

	// Promotion ends the follower role; the lag check no longer applies
	// and the node reports ready.
	if _, err := f.node.Promote(0); err != nil {
		t.Fatalf("Promote: %v", err)
	}
	waitFor(t, "ready after promote", func() bool {
		code, rp := getReady(t, f.srv.URL)
		return code == http.StatusOK && rp.Ready
	})
	st := f.node.Status()
	if st.Role != "primary" {
		t.Fatalf("role after promote = %q, want primary", st.Role)
	}
}

// TestReadyzFencedNotReady: a node that observed a newer epoch upstream
// (a deposed primary rejoining as a follower) must fail readiness on the
// fenced check.
func TestReadyzFencedNotReady(t *testing.T) {
	// The upstream serves epoch 3; the follower's own epoch is 5, so every
	// sync fails with a stale epoch and the node marks itself fenced.
	primary := fakePrimary(t, 3, 100)
	f := startObservedFollower(t, primary.URL, 0, time.Hour)
	if err := f.repo.AdvanceEpoch(5); err != nil {
		t.Fatalf("AdvanceEpoch: %v", err)
	}
	f.node.Start()

	waitFor(t, "fenced readiness failure", func() bool {
		code, rp := getReady(t, f.srv.URL)
		detail, failed := failingCheck(rp, "fenced")
		return code == http.StatusServiceUnavailable && failed &&
			strings.Contains(detail, "newer epoch")
	})
}

// TestReadyzIdleLongPollDoesNotFlap: on an idle topology the follower's
// long-poll parks for its full wait, so the last completed sync ages by
// PollWait between exchanges. That staleness must not fail readiness
// while the stream is healthy — only a broken stream starts the aging
// clock.
func TestReadyzIdleLongPollDoesNotFlap(t *testing.T) {
	// First exchange returns immediately (the follower syncs and marks
	// itself connected); every later poll parks well past the readiness
	// max age before answering, like a real idle primary would.
	var calls atomic.Int64
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) > 1 {
			time.Sleep(600 * time.Millisecond)
		}
		w.Header().Set(replication.HeaderEpoch, "1")
		w.Header().Set(replication.HeaderSeq, "0")
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(primary.Close)

	f := startObservedFollower(t, primary.URL, 0, 200*time.Millisecond)
	f.node.Start()
	waitFor(t, "first sync", func() bool {
		code, _ := getReady(t, f.srv.URL)
		return code == http.StatusOK
	})

	// Through two full parked polls the sync age repeatedly exceeds the
	// 200ms bound; readiness must hold anyway.
	deadline := time.Now().Add(1200 * time.Millisecond)
	for time.Now().Before(deadline) {
		if code, rp := getReady(t, f.srv.URL); code != http.StatusOK {
			detail, _ := failingCheck(rp, "repl_lag")
			t.Fatalf("readyz flapped to %d during healthy idle long-poll: %s", code, detail)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Kill the upstream: the next exchange errors, the stream reports
	// down, and the aging clock now counts for real.
	primary.CloseClientConnections()
	primary.Close()
	waitFor(t, "age-based failure once the stream is down", func() bool {
		code, rp := getReady(t, f.srv.URL)
		detail, failed := failingCheck(rp, "repl_lag")
		return code == http.StatusServiceUnavailable && failed &&
			strings.Contains(detail, "stream down")
	})
}

// TestFleetStatusTable: the acceptance path for `verlog status` — a real
// two-node topology renders a row per node with the right roles, and the
// client's readiness probe agrees with the table.
func TestFleetStatusTable(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	for i := 1; i <= 3; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, 10*i)); err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
	}
	_, seq := p.repo.Snapshot()
	waitConverged(t, p.repo, f.repo, seq)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	c := client.NewMulti([]string{p.srv.URL, f.srv.URL})

	for _, ep := range []string{p.srv.URL, f.srv.URL} {
		if err := c.HealthyOf(ctx, ep); err != nil {
			t.Fatalf("HealthyOf(%s): %v", ep, err)
		}
	}

	rows := c.FleetStatus(ctx)
	if len(rows) != 2 {
		t.Fatalf("FleetStatus returned %d rows, want 2", len(rows))
	}
	for _, row := range rows {
		if row.Err != nil {
			t.Fatalf("node %s unreachable: %v", row.Endpoint, row.Err)
		}
		if !row.Status.Ready {
			t.Fatalf("node %s not ready: %v", row.Endpoint, row.Status.FailingChecks())
		}
		if got := row.Status.HeadSeq; got != seq {
			t.Fatalf("node %s head seq = %d, want %d", row.Endpoint, got, seq)
		}
	}
	if rows[0].Status.Role != "primary" || rows[1].Status.Role != "follower" {
		t.Fatalf("roles = %q, %q; want primary, follower",
			rows[0].Status.Role, rows[1].Status.Role)
	}
	// Both hold the same three records, on disk and resident.
	if ps, fs := rows[0].Status, rows[1].Status; ps.JournalBytes == 0 || ps.HistoryBytes == 0 ||
		ps.HistoryBytes >= ps.JournalBytes || ps.JournalBytes != fs.JournalBytes || ps.HistoryBytes != fs.HistoryBytes {
		t.Fatalf("history sizes: primary %d on disk / %d resident, follower %d / %d; want equal, non-zero, resident below disk",
			ps.JournalBytes, ps.HistoryBytes, fs.JournalBytes, fs.HistoryBytes)
	}
	// And the same state: the follower's head digest is its primary's.
	var digests []string
	for _, ep := range []string{p.srv.URL, f.srv.URL} {
		resp, err := http.Get(ep + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			HeadDigest string `json:"head_digest"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		digests = append(digests, st.HeadDigest)
	}
	if want := p.repo.Digest().String(); digests[0] != want || digests[1] != want {
		t.Fatalf("head_digest: primary %q, follower %q; want %q on both", digests[0], digests[1], want)
	}

	table := client.FleetTable(rows)
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("fleet table has %d lines, want header + 2 rows:\n%s", len(lines), table)
	}
	if !strings.Contains(lines[0], "ROLE") || !strings.Contains(lines[0], "READY") {
		t.Fatalf("fleet table header missing columns:\n%s", table)
	}
	for i, want := range []string{"primary", "follower"} {
		line := lines[i+1]
		if !strings.Contains(line, want) || !strings.Contains(line, "yes") {
			t.Fatalf("row %d = %q, want role %q and ready yes", i+1, line, want)
		}
		if !strings.Contains(line, fmt.Sprintf("%d", seq)) {
			t.Fatalf("row %d = %q missing head seq %d", i+1, line, seq)
		}
	}

	// A dead node renders as a down row instead of failing the sweep.
	down := client.NewMulti([]string{p.srv.URL, "http://127.0.0.1:1"})
	table = client.FleetTable(down.FleetStatus(ctx))
	if !strings.Contains(table, "down") || !strings.Contains(table, "NO (") {
		t.Fatalf("down node not rendered:\n%s", table)
	}
}
