// In-process primary/follower topology tests: two real repositories, two
// real HTTP servers, a real pull loop. The only test double is a proxy
// that corrupts stream bodies — everything else is the production path.
package replication_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/storage"
	"verlog/internal/term"
)

const initSrc = `
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`

func testBase(t *testing.T) *objectbase.Base {
	t.Helper()
	b, err := parser.ObjectBase(initSrc, "init.vlg")
	if err != nil {
		t.Fatalf("parse init: %v", err)
	}
	return b
}

// raiseProgram returns a distinct one-rule raise so successive applies
// produce distinct states.
func raiseProgram(t *testing.T, delta int) *term.Program {
	t.Helper()
	src := fmt.Sprintf(
		`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + %d.`, delta)
	p, err := parser.Program(src, "raise.vlg")
	if err != nil {
		t.Fatalf("parse raise: %v", err)
	}
	return p
}

// node bundles one replication participant for tests.
type testNode struct {
	repo *repository.Repository
	node *replication.Node
	srv  *httptest.Server
}

func startPrimary(t *testing.T, cfg replication.Config) *testNode {
	t.Helper()
	repo, err := repository.Init(t.TempDir()+"/primary", testBase(t))
	if err != nil {
		t.Fatalf("Init primary: %v", err)
	}
	if cfg.FollowerTTL == 0 {
		cfg.FollowerTTL = time.Hour // tests control liveness explicitly
	}
	n := replication.NewNode(repo, cfg)
	srv := httptest.NewServer(server.New(repo, server.WithReplication(n)))
	t.Cleanup(srv.Close)
	return &testNode{repo: repo, node: n, srv: srv}
}

// startFollower starts a follower of primaryURL with a fast poll so tests
// converge quickly.
func startFollower(t *testing.T, primaryURL string) *testNode {
	t.Helper()
	repo, err := repository.Init(t.TempDir()+"/follower", testBase(t))
	if err != nil {
		t.Fatalf("Init follower: %v", err)
	}
	return followOn(t, repo, primaryURL)
}

// followOn starts repo following primaryURL, as startFollower does.
func followOn(t *testing.T, repo *repository.Repository, primaryURL string) *testNode {
	t.Helper()
	n := replication.NewNode(repo, replication.Config{
		PrimaryURL: primaryURL,
		FollowerID: "follower-under-test",
		PollWait:   100 * time.Millisecond,
	})
	srv := httptest.NewServer(server.New(repo, server.WithReplication(n)))
	n.Start()
	t.Cleanup(func() { n.Stop(); srv.Close() })
	return &testNode{repo: repo, node: n, srv: srv}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitConverged waits until follower's published head reaches seq and
// asserts base equality with primary at that point.
func waitConverged(t *testing.T, primary, follower *repository.Repository, seq int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("follower head seq %d", seq), func() bool {
		_, s := follower.Snapshot()
		return s >= seq
	})
	pb, ps := primary.Snapshot()
	fb, fs := follower.Snapshot()
	if ps != fs {
		t.Fatalf("head seqs diverged: primary %d, follower %d", ps, fs)
	}
	if !pb.Equal(fb) {
		t.Fatalf("bases diverged at seq %d", ps)
	}
}

// metricValue scrapes a counter/gauge value from a /metrics exposition.
func metricValue(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in %s/metrics", name, url)
	return 0
}

func getStatus(t *testing.T, url string) replication.Status {
	t.Helper()
	resp, err := http.Get(url + "/v1/repl/status")
	if err != nil {
		t.Fatalf("GET /v1/repl/status: %v", err)
	}
	defer resp.Body.Close()
	var st replication.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode status: %v", err)
	}
	return st
}

// TestFollowerConverges: a follower streams a primary's applies, serves
// identical reads, and both sides report the link in /v1/repl/status.
func TestFollowerConverges(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	for i := 1; i <= 4; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, 10*i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	waitConverged(t, p.repo, f.repo, 4)

	// The follower serves reads over HTTP from its replicated head.
	resp, err := http.Post(f.srv.URL+"/v1/t/default/query", "text/plain",
		strings.NewReader(`phil.sal -> S.`))
	if err != nil {
		t.Fatalf("query follower: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follower query returned %d: %s", resp.StatusCode, body)
	}
	if want := "4100"; !strings.Contains(string(body), want) { // 4000 +10+20+30+40
		t.Errorf("follower query = %s, want it to contain %q", body, want)
	}

	// Status: follower reports the link, primary reports the ack.
	waitFor(t, "follower connected with zero lag", func() bool {
		st := getStatus(t, f.srv.URL)
		return st.Role == "follower" && st.Connected && st.LagSeq == 0 && st.HeadSeq == 4
	})
	waitFor(t, "primary follower table ack", func() bool {
		st := getStatus(t, p.srv.URL)
		return st.Role == "primary" && len(st.Followers) == 1 &&
			st.Followers[0].ID == "follower-under-test" && st.Followers[0].AckSeq == 4
	})
	if lag := metricValue(t, f.srv.URL, "verlog_repl_lag_seq"); lag != 0 {
		t.Errorf("verlog_repl_lag_seq = %v, want 0", lag)
	}
	// The seq gauges agree on both sides of the link.
	for _, n := range []*testNode{p, f} {
		if h, j := metricValue(t, n.srv.URL, "verlog_head_seq"), metricValue(t, n.srv.URL, "verlog_journal_seq"); h != 4 || j != 4 {
			t.Errorf("seq gauges = head %v, journal %v, want 4, 4", h, j)
		}
	}
}

// TestFollowerRejectsWrites: mutations on a follower come back 403 with
// the read_only code and the primary's URL; reads keep working even with
// the primary gone, and the status reports the growing staleness.
func TestFollowerRejectsWrites(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	if _, err := p.repo.Apply(raiseProgram(t, 100)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitConverged(t, p.repo, f.repo, 1)

	resp, err := http.Post(f.srv.URL+"/v1/t/default/apply", "application/json",
		strings.NewReader(`{"program":"raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 1."}`))
	if err != nil {
		t.Fatalf("apply on follower: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("apply on follower returned %d, want 403: %s", resp.StatusCode, body)
	}
	var env struct {
		Error struct {
			Code    string `json:"code"`
			Primary string `json:"primary"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode error envelope %s: %v", body, err)
	}
	if env.Error.Code != "read_only" || env.Error.Primary != p.srv.URL {
		t.Errorf("error = %+v, want code read_only and primary %s", env.Error, p.srv.URL)
	}

	// Kill the primary: the follower loses the stream but keeps serving.
	waitFor(t, "follower connected", func() bool {
		return getStatus(t, f.srv.URL).Connected
	})
	p.srv.Close()
	waitFor(t, "follower to notice the dead primary", func() bool {
		st := getStatus(t, f.srv.URL)
		return !st.Connected && st.LastError != ""
	})
	resp, err = http.Get(f.srv.URL + "/v1/t/default/head")
	if err != nil {
		t.Fatalf("head on disconnected follower: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("head on disconnected follower returned %d, want 200", resp.StatusCode)
	}
	st := getStatus(t, f.srv.URL)
	if st.LagSeconds <= 0 || st.LastError == "" {
		t.Errorf("disconnected status = %+v, want positive lag_seconds and a last_error", st)
	}
	if r := metricValue(t, f.srv.URL, "verlog_repl_reconnects_total"); r < 1 {
		t.Errorf("verlog_repl_reconnects_total = %v, want >= 1", r)
	}
}

// corruptingProxy forwards stream requests to the primary, mangling the
// first few bodies: a torn tail (truncation mid-frame) then a bit flip
// mid-body. Everything else passes through untouched.
type corruptingProxy struct {
	primary string
	mu      sync.Mutex
	torn    int // bodies left to truncate
	flipped int // bodies left to bit-flip
	hits    int // stream bodies actually corrupted
}

func (cp *corruptingProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	resp, err := http.Get(cp.primary + r.URL.String())
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if strings.HasPrefix(r.URL.Path, "/v1/repl/stream") && resp.StatusCode == http.StatusOK && len(body) > 16 {
		cp.mu.Lock()
		switch {
		case cp.torn > 0:
			cp.torn--
			cp.hits++
			body = body[:len(body)-7] // cut mid-frame: a torn tail
		case cp.flipped > 0:
			cp.flipped--
			cp.hits++
			body = bytes.Clone(body)
			body[len(body)/2] ^= 0x40 // corrupt a frame in the middle
		}
		cp.mu.Unlock()
	}
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(body)
}

// TestFollowerTornStream: torn and bit-flipped stream frames are
// discarded — never applied — and the follower re-requests and converges
// to a base equal to the primary's.
func TestFollowerTornStream(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	// Commit before the follower connects so the first stream bodies are
	// multi-frame and worth corrupting.
	for i := 1; i <= 5; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	proxy := &corruptingProxy{primary: p.srv.URL, torn: 1, flipped: 1}
	ps := httptest.NewServer(proxy)
	t.Cleanup(ps.Close)

	f := startFollower(t, ps.URL)
	waitConverged(t, p.repo, f.repo, 5)

	proxy.mu.Lock()
	hits := proxy.hits
	proxy.mu.Unlock()
	if hits != 2 {
		t.Fatalf("proxy corrupted %d bodies, want 2 — the test exercised nothing", hits)
	}
	if torn := metricValue(t, f.srv.URL, "verlog_repl_torn_frames_total"); torn < 2 {
		t.Errorf("verlog_repl_torn_frames_total = %v, want >= 2", torn)
	}
	// The follower's own journal must be fully valid after the mangled
	// stream: every applied record was re-framed, CRC'd and fsynced.
	if err := f.repo.Verify(); err != nil {
		t.Errorf("follower Verify after torn stream: %v", err)
	}
}

// TestEpochFencing: a stream carrying an older epoch (a deposed primary)
// is rejected and fences the follower; a newer epoch (a legitimate
// promotion) is adopted durably before its records apply.
func TestEpochFencing(t *testing.T) {
	// Source of genuine frames: a scratch repository one commit ahead.
	src, err := repository.Init(t.TempDir()+"/src", testBase(t))
	if err != nil {
		t.Fatalf("Init src: %v", err)
	}
	if _, err := src.Apply(raiseProgram(t, 5)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	entries, _, _ := src.EntriesAfter(0)
	var frames bytes.Buffer
	for _, e := range entries {
		payload, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal entry: %v", err)
		}
		frames.Write(storage.FrameJournalRecord(payload))
	}

	// A fake primary serving those frames under a configurable epoch.
	var mu sync.Mutex
	epoch := uint64(3)
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/repl/stream") {
			http.NotFound(w, r)
			return
		}
		mu.Lock()
		e := epoch
		mu.Unlock()
		w.Header().Set(replication.HeaderEpoch, strconv.FormatUint(e, 10))
		w.Header().Set(replication.HeaderSeq, "1")
		w.Write(frames.Bytes())
	}))
	t.Cleanup(fake.Close)

	// Build the follower by hand: its epoch must be 5 BEFORE the pull
	// loop first talks to the fake, or the loop would adopt epoch 3.
	frepo, err := repository.Init(t.TempDir()+"/follower", testBase(t))
	if err != nil {
		t.Fatalf("Init follower: %v", err)
	}
	if err := frepo.AdvanceEpoch(5, 0); err != nil {
		t.Fatalf("AdvanceEpoch: %v", err)
	}
	fnode := replication.NewNode(frepo, replication.Config{
		PrimaryURL: fake.URL, PollWait: 100 * time.Millisecond,
	})
	fsrv := httptest.NewServer(server.New(frepo, server.WithReplication(fnode)))
	fnode.Start()
	t.Cleanup(func() { fnode.Stop(); fsrv.Close() })
	f := &testNode{repo: frepo, node: fnode, srv: fsrv}

	// Epoch 3 < 5: the records must not apply, and the status says fenced.
	waitFor(t, "follower fenced against the stale epoch", func() bool {
		return getStatus(t, f.srv.URL).Fenced
	})
	if _, seq := f.repo.Snapshot(); seq != 0 {
		t.Fatalf("follower applied %d records from a deposed primary", seq)
	}
	if s := metricValue(t, f.srv.URL, "verlog_repl_stale_epochs_total"); s < 1 {
		t.Errorf("verlog_repl_stale_epochs_total = %v, want >= 1", s)
	}

	// Epoch 7 > 5: adopted durably, records applied, fence cleared.
	mu.Lock()
	epoch = 7
	mu.Unlock()
	waitConverged(t, src, f.repo, 1)
	if got := f.repo.Epoch(); got != 7 {
		t.Errorf("follower epoch = %d, want the adopted 7", got)
	}
	// The status is updated after the batch is applied, which is what
	// waitConverged saw; give the loop its turn.
	waitFor(t, "fence cleared after adopting the newer epoch", func() bool {
		return !getStatus(t, f.srv.URL).Fenced
	})
}

// TestDeposedPrimaryRejoinsPastPromotionPoint: a primary dies with an
// unreplicated journal suffix, the follower is promoted and commits its
// own history, and the deposed primary rejoins as a follower. Its suffix
// diverges from the new primary's records at the same seqs; the fence
// seq in the stream response must force it through a snapshot bootstrap
// so it converges to the new history instead of grafting the stream onto
// its fork and silently serving wrong reads forever.
func TestDeposedPrimaryRejoinsPastPromotionPoint(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	// Shared history: seqs 1..2 on both sides.
	for i := 1; i <= 2; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, 10*i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	waitConverged(t, p.repo, f.repo, 2)
	f.node.Stop()

	// The primary runs ahead unreplicated (seq 3), then "dies".
	if _, err := p.repo.Apply(raiseProgram(t, 999)); err != nil {
		t.Fatalf("Apply unreplicated: %v", err)
	}
	p.srv.Close()

	// Failover: the follower is promoted at seq 2 and commits a different
	// history for seqs 3..4.
	if epoch, err := f.node.Promote(0); err != nil || epoch != 2 {
		t.Fatalf("Promote = %d, %v; want epoch 2", epoch, err)
	}
	for i := 3; i <= 4; i++ {
		if _, err := f.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatalf("Apply on promoted follower %d: %v", i, err)
		}
	}

	// The deposed primary rejoins as a follower of the new primary. Its
	// head (3) is past the promotion point (2): the fence must reject the
	// resume and rebuild it from the new primary's snapshot.
	rejoin := replication.NewNode(p.repo, replication.Config{
		PrimaryURL: f.srv.URL,
		FollowerID: "deposed-primary",
		PollWait:   100 * time.Millisecond,
	})
	rejoin.Start()
	t.Cleanup(rejoin.Stop)

	waitConverged(t, f.repo, p.repo, 4)
	// The snapshot reset (what waitConverged saw) precedes the epoch
	// adoption, so that a crash between the two re-bootstraps.
	waitFor(t, "rejoined node adopts epoch 2", func() bool { return p.repo.Epoch() == 2 })
	// Convergence went via snapshot transfer: the rejoined node's snapshot
	// is the new primary's head, not its own pre-failover snapshot at 0.
	if got := p.repo.SnapshotSeq(); got != 4 {
		t.Errorf("rejoined node snapshot seq = %d, want 4 (bootstrapped from the new primary)", got)
	}
}

// TestDeposedPrimaryAheadOfNewPrimary: the deposed primary's head is past
// the new primary's — it asks for records after a seq the new primary has
// never reached. The stream must answer snapshot_required (waiting would
// hang, serving would be impossible), and the rejoining node must drop
// its forked suffix and converge onto the shorter, authoritative history.
func TestDeposedPrimaryAheadOfNewPrimary(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	if _, err := p.repo.Apply(raiseProgram(t, 10)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitConverged(t, p.repo, f.repo, 1)
	f.node.Stop()

	// Two unreplicated applies, then death: the deposed primary is at seq
	// 3 while the promoted follower stays at 1.
	for i := 2; i <= 3; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, 100*i)); err != nil {
			t.Fatalf("Apply unreplicated %d: %v", i, err)
		}
	}
	p.srv.Close()
	if epoch, err := f.node.Promote(0); err != nil || epoch != 2 {
		t.Fatalf("Promote = %d, %v; want epoch 2", epoch, err)
	}

	rejoin := replication.NewNode(p.repo, replication.Config{
		PrimaryURL: f.srv.URL,
		FollowerID: "deposed-primary",
		PollWait:   100 * time.Millisecond,
	})
	rejoin.Start()
	t.Cleanup(rejoin.Stop)

	// The rejoined node must come BACK to seq 1 — its seqs 2..3 never
	// happened on the surviving history.
	waitFor(t, "deposed primary to reset onto the new history", func() bool {
		_, seq := p.repo.Snapshot()
		return seq == 1 && p.repo.SnapshotSeq() == 1
	})
	pb, _ := f.repo.Snapshot()
	rb, _ := p.repo.Snapshot()
	if !pb.Equal(rb) {
		t.Fatal("rejoined node's base diverges from the new primary's")
	}
}

// TestBrokenStreamPathReportsUnhealthy: a path that serves 200s whose
// bodies never contain one usable record (every response cut or corrupted
// at the first frame) is a failure, not a healthy idle stream — the
// follower must report disconnected with a last_error and back off rather
// than hot-loop while Status claims all is well.
func TestBrokenStreamPathReportsUnhealthy(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	if _, err := p.repo.Apply(raiseProgram(t, 10)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	// A proxy that mangles EVERY stream body beyond recovery.
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		resp, err := http.Get(p.srv.URL + r.URL.String())
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		for k, vs := range resp.Header {
			for _, v := range vs {
				w.Header().Add(k, v)
			}
		}
		w.WriteHeader(resp.StatusCode)
		if strings.HasPrefix(r.URL.Path, "/v1/repl/stream") && resp.StatusCode == http.StatusOK {
			w.Write([]byte("v1 00000000 {cut")) // first frame corrupt, no newline
		}
	}))
	t.Cleanup(proxy.Close)

	f := startFollower(t, proxy.URL)
	waitFor(t, "follower to report the broken path", func() bool {
		st := getStatus(t, f.srv.URL)
		return !st.Connected && st.LastError != ""
	})
	if _, seq := f.repo.Snapshot(); seq != 0 {
		t.Errorf("follower applied %d records from a fully corrupt stream", seq)
	}
	if r := metricValue(t, f.srv.URL, "verlog_repl_reconnects_total"); r < 1 {
		t.Errorf("verlog_repl_reconnects_total = %v, want >= 1 (the broken path must back off)", r)
	}
}

// TestCompactRetainsForFollower: compaction on the primary keeps the
// journal suffix a connected follower still needs, so the follower
// resumes mid-stream without a snapshot transfer. The regression this
// guards: Compact folding everything and stranding every follower.
func TestCompactRetainsForFollower(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)

	for i := 1; i <= 2; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	waitConverged(t, p.repo, f.repo, 2)
	// Make sure the primary has seen the ack for seq 2 before pausing.
	waitFor(t, "primary ack at 2", func() bool {
		st := getStatus(t, p.srv.URL)
		return len(st.Followers) == 1 && st.Followers[0].AckSeq == 2
	})
	f.node.Stop() // follower pauses, still live in the primary's table

	for i := 3; i <= 5; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	if err := p.repo.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := p.repo.SnapshotSeq(); got != 2 {
		t.Fatalf("snapshot seq after compact = %d, want 2 (the follower's ack pins retention)", got)
	}

	f.node.Start()
	waitConverged(t, p.repo, f.repo, 5)
	if loads := metricValue(t, f.srv.URL, "verlog_repl_snapshot_loads_total"); loads != 0 {
		t.Errorf("follower bootstrapped %v times, want 0 — the retained suffix should have sufficed", loads)
	}
}

// TestStaleFollowerBootstrapsViaSnapshot: a follower behind the primary's
// retention bound gets 409 snapshot_required and recovers by snapshot
// transfer, converging to an equal base.
func TestStaleFollowerBootstrapsViaSnapshot(t *testing.T) {
	p := startPrimary(t, replication.Config{MaxRetention: 2})
	f := startFollower(t, p.srv.URL)

	if _, err := p.repo.Apply(raiseProgram(t, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitConverged(t, p.repo, f.repo, 1)
	f.node.Stop()

	// Run far past the retention bound, then compact.
	for i := 2; i <= 8; i++ {
		if _, err := p.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatalf("Apply %d: %v", i, err)
		}
	}
	if err := p.repo.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if got := p.repo.SnapshotSeq(); got != 6 { // head 8 - MaxRetention 2
		t.Fatalf("snapshot seq after compact = %d, want 6 (max retention clamps the follower's pin)", got)
	}

	f.node.Start()
	waitConverged(t, p.repo, f.repo, 8)
	// The counter increments after the reset publishes, so poll rather
	// than assert the post-convergence instant.
	waitFor(t, "snapshot load counted", func() bool {
		return metricValue(t, f.srv.URL, "verlog_repl_snapshot_loads_total") >= 1
	})
	if err := f.repo.Verify(); err != nil {
		t.Errorf("follower Verify after snapshot bootstrap: %v", err)
	}
}

// TestPromoteIsIdempotentAndFences: promotion advances the epoch once,
// reports the same epoch on repeat, and the promoted node accepts writes.
func TestPromoteIsIdempotent(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)
	if _, err := p.repo.Apply(raiseProgram(t, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitConverged(t, p.repo, f.repo, 1)

	resp, err := http.Post(f.srv.URL+"/v1/repl/promote", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr struct {
		Role  string `json:"role"`
		Epoch uint64 `json:"epoch"`
		Seq   int    `json:"head_seq"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode promote response: %v", err)
	}
	resp.Body.Close()
	if pr.Role != "primary" || pr.Epoch != 2 || pr.Seq != 1 {
		t.Fatalf("promote = %+v, want primary at epoch 2, seq 1", pr)
	}

	// Again: same epoch, no second advance.
	if epoch, err := f.node.Promote(0); err != nil || epoch != 2 {
		t.Errorf("second Promote = %d, %v; want 2, nil", epoch, err)
	}

	// The promoted node takes writes.
	if _, err := f.repo.Apply(raiseProgram(t, 2)); err != nil {
		t.Errorf("apply on promoted node: %v", err)
	}
	if ro, _ := f.node.ReadOnly(); ro {
		t.Error("promoted node still reports read-only")
	}
}

// TestPromoteExplicitTarget: epochs fence only while unique, so an
// operator who must issue more than one promotion per failover passes
// each candidate a distinct target epoch. The target is honored, retrying
// the same target is idempotent, and a non-advancing target is rejected.
func TestPromoteExplicitTarget(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)
	if _, err := p.repo.Apply(raiseProgram(t, 1)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	waitConverged(t, p.repo, f.repo, 1)

	resp, err := http.Post(f.srv.URL+"/v1/repl/promote?epoch=9", "application/json", nil)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	var pr struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatalf("decode promote response: %v", err)
	}
	resp.Body.Close()
	if pr.Epoch != 9 {
		t.Fatalf("promote epoch = %d, want the explicit target 9", pr.Epoch)
	}
	if epoch, err := f.node.Promote(9); err != nil || epoch != 9 {
		t.Errorf("retry of the same target = %d, %v; want 9, nil", epoch, err)
	}
	if _, err := f.node.Promote(3); err == nil {
		t.Error("promote to an epoch behind the current one succeeded")
	}
	resp, err = http.Post(f.srv.URL+"/v1/repl/promote?epoch=3", "application/json", nil)
	if err != nil {
		t.Fatalf("promote with stale target: %v", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("stale promote target returned %d, want 409", resp.StatusCode)
	}
}

// TestJournalsByteIdentical: a journal record is a function of its entry,
// so after a mixed sequence — point updates under idempotency keys, bulk
// raises, an object created, one deleted, an update that changes nothing,
// a constraint set installed — the follower's journal file is the
// primary's, byte for byte.
func TestJournalsByteIdentical(t *testing.T) {
	p := startPrimary(t, replication.Config{})
	f := startFollower(t, p.srv.URL)
	steps := []string{
		`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S * 1.1 + 7.`,
		`mod[bob].sal -> (S, S') <- bob.sal -> S, S' = S + 1.`,
		"a: ins[w1].kind -> widget.\nb: ins[w1].label -> \"two; words/here <&> \\\"q\\\"\\n\".",
		`mod[phil].sal -> (S, S') <- phil.sal -> S, S' = S - 0.25.`,
		`a: ins[w1].kind -> widget.`,
		`fire: del[E].* <- E.isa -> empl, E.pos -> mgr.`,
		`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S / 3.`,
	}
	for i, src := range steps {
		prog, err := parser.Program(src, "step.vlg")
		if err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		key := ""
		if i%2 == 1 {
			key = fmt.Sprintf("key-%d", i)
		}
		if i == 4 {
			if err := p.repo.SetConstraints("nonneg: E.isa -> empl, E.sal -> S,\n\tS < 0. % \"never\"\n"); err != nil {
				t.Fatal(err)
			}
		}
		if _, _, _, err := p.repo.ApplyKey(prog, key); err != nil {
			t.Fatalf("step %d: %v", i+1, err)
		}
		if i == 2 {
			waitConverged(t, p.repo, f.repo, 3) // some records arrive one by one, the rest as a batch
		}
	}
	records := len(steps) + 1
	waitConverged(t, p.repo, f.repo, records)
	pj, err := os.ReadFile(filepath.Join(p.repo.Dir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	fj, err := os.ReadFile(filepath.Join(f.repo.Dir(), "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pj, fj) {
		t.Errorf("journals differ:\nprimary:\n%s\nfollower:\n%s", pj, fj)
	}
	checkpoint := storage.Snapshot{Base: testBase(t)}.Append(nil)
	if !bytes.HasPrefix(pj, checkpoint) || bytes.Count(pj, []byte("\n")) != bytes.Count(checkpoint, []byte("\n"))+records ||
		!bytes.Contains(pj, []byte(`"added":"bob.sal=`)) || !bytes.Contains(pj, []byte(`"constraints":"nonneg:`)) {
		t.Errorf("primary journal does not hold the initial checkpoint and %d compact records:\n%s", records, pj)
	}
	if err := f.repo.Verify(); err != nil {
		t.Errorf("follower Verify: %v", err)
	}
}

// capSrc is a primary's constraint set; raiseProgram(t, 2000) violates it.
const capSrc = `cap: E.isa -> empl, E.sal -> S, S > 5000.`

// checkEnforces requires repo to hold the constraint set of primary, and,
// when that set is capSrc, to refuse the raise it refuses, as a follower
// must once promoted.
func checkEnforces(t *testing.T, primary, repo *repository.Repository) {
	t.Helper()
	if got, want := repo.Export().Constraints, primary.Export().Constraints; got != want {
		t.Fatalf("constraint set %q, the primary's is %q", got, want)
	}
	if got, want := len(repo.Constraints()), len(primary.Constraints()); got != want {
		t.Fatalf("%d constraints in force, the primary has %d", got, want)
	}
	if primary.Export().Constraints != capSrc {
		return
	}
	for _, r := range []*repository.Repository{primary, repo} {
		var cv *repository.ConstraintViolationError
		if _, err := r.Apply(raiseProgram(t, 2000)); !errors.As(err, &cv) || cv.Constraint != "cap" {
			t.Fatalf("the raise over the cap: %v, want a ConstraintViolationError of cap", err)
		}
	}
}

// TestFollowerEnforcesPrimaryConstraints: the constraint set is part of
// the replicated state. A follower holds its primary's set, whether it
// streamed the install, bootstrapped from a snapshot that folded it in, or
// restarted, and once promoted it refuses what the primary refused. A
// later clear of the set reaches it the same way.
func TestFollowerEnforcesPrimaryConstraints(t *testing.T) {
	promote := func(t *testing.T, f *testNode) {
		t.Helper()
		if _, err := f.node.Promote(0); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("stream", func(t *testing.T) {
		p := startPrimary(t, replication.Config{})
		f := startFollower(t, p.srv.URL)
		for seq, src := range []string{capSrc, "", capSrc} {
			if err := p.repo.SetConstraints(src); err != nil {
				t.Fatal(err)
			}
			waitConverged(t, p.repo, f.repo, seq+1)
			checkEnforces(t, p.repo, f.repo)
		}
		promote(t, f)
		checkEnforces(t, p.repo, f.repo)
	})
	t.Run("snapshot", func(t *testing.T) {
		p := startPrimary(t, replication.Config{})
		if err := p.repo.SetConstraints(capSrc); err != nil {
			t.Fatal(err)
		}
		if _, err := p.repo.Apply(raiseProgram(t, 1)); err != nil {
			t.Fatal(err)
		}
		if err := p.repo.Compact(); err != nil || p.repo.SnapshotSeq() != 2 {
			t.Fatalf("Compact: %v, snapshot at %d, want 2", err, p.repo.SnapshotSeq())
		}
		// The snapshot as the server fetches it for an empty -dir.
		snap, _, err := replication.FetchSnapshot(context.Background(), http.DefaultClient, p.srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := repository.InitAt(t.TempDir()+"/fresh", snap)
		if err != nil {
			t.Fatal(err)
		}
		checkEnforces(t, p.repo, fresh)
		// A follower behind the snapshot bootstraps from it.
		f := startFollower(t, p.srv.URL)
		waitConverged(t, p.repo, f.repo, 2)
		promote(t, f)
		checkEnforces(t, p.repo, f.repo)
	})
	t.Run("restart", func(t *testing.T) {
		p := startPrimary(t, replication.Config{})
		f := startFollower(t, p.srv.URL)
		if err := p.repo.SetConstraints(capSrc); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, p.repo, f.repo, 1)
		f.node.Stop()
		f.srv.Close()
		if err := f.repo.Close(); err != nil {
			t.Fatal(err)
		}
		reopened, err := repository.Open(f.repo.Dir())
		if err != nil {
			t.Fatal(err)
		}
		checkEnforces(t, p.repo, reopened)
		f = followOn(t, reopened, p.srv.URL)
		if err := p.repo.SetConstraints(""); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, p.repo, f.repo, 2)
		checkEnforces(t, p.repo, f.repo)
		if err := p.repo.SetConstraints(capSrc); err != nil {
			t.Fatal(err)
		}
		waitConverged(t, p.repo, f.repo, 3)
		promote(t, f)
		checkEnforces(t, p.repo, f.repo)
	})
}
