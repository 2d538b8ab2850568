package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"verlog/internal/parser"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/server"
)

// replPair is an in-process primary/follower topology for client tests.
type replPair struct {
	prepo, frepo *repository.Repository
	psrv, fsrv   *httptest.Server
	fnode        *replication.Node
}

func newReplPair(t *testing.T) *replPair {
	t.Helper()
	initial, err := parser.ObjectBase(`
phil.isa -> empl / pos -> mgr / sal -> 4000.
bob.isa -> empl / boss -> phil / sal -> 4200.
`, "init.vlg")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prepo, err := repository.Init(t.TempDir()+"/primary", initial)
	if err != nil {
		t.Fatalf("Init primary: %v", err)
	}
	pnode := replication.NewNode(prepo, replication.Config{FollowerTTL: time.Hour})
	psrv := httptest.NewServer(server.New(prepo, server.WithReplication(pnode)))
	t.Cleanup(psrv.Close)

	frepo, err := repository.Init(t.TempDir()+"/follower", initial)
	if err != nil {
		t.Fatalf("Init follower: %v", err)
	}
	fnode := replication.NewNode(frepo, replication.Config{
		PrimaryURL: psrv.URL,
		PollWait:   100 * time.Millisecond,
	})
	fsrv := httptest.NewServer(server.New(frepo, server.WithReplication(fnode)))
	fnode.Start()
	t.Cleanup(func() { fnode.Stop(); fsrv.Close() })
	return &replPair{prepo: prepo, frepo: frepo, psrv: psrv, fsrv: fsrv, fnode: fnode}
}

func (rp *replPair) waitFollowerAt(t *testing.T, seq int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, s := rp.frepo.Snapshot(); s >= seq {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("follower never reached seq %d", seq)
}

func raiseSrc(delta int) string {
	return fmt.Sprintf(`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + %d.`, delta)
}

// TestClientWriteFollowsReadOnlyRedirect: a write landing on a follower
// is redirected to the primary named in the read_only envelope and
// succeeds without burning a retry.
func TestClientWriteFollowsReadOnlyRedirect(t *testing.T) {
	rp := newReplPair(t)
	// The follower is the client's first (and preferred) endpoint.
	c := NewMulti([]string{rp.fsrv.URL, rp.psrv.URL}, WithRetry(2, time.Millisecond))

	res, err := c.Apply(context.Background(), raiseSrc(100))
	if err != nil {
		t.Fatalf("Apply via follower endpoint: %v", err)
	}
	if res.State != 1 {
		t.Errorf("apply state = %d, want 1", res.State)
	}
	// The write committed on the primary, not the follower's own journal.
	if _, seq := rp.prepo.Snapshot(); seq != 1 {
		t.Errorf("primary head seq = %d, want 1", seq)
	}
	// The client learned the primary and sends the next write straight there.
	if got := c.writeTarget(); got != rp.psrv.URL {
		t.Errorf("writeTarget = %q, want the learned primary %q", got, rp.psrv.URL)
	}
	if _, err := c.Apply(context.Background(), raiseSrc(50)); err != nil {
		t.Fatalf("second Apply: %v", err)
	}
}

// TestClientRotatesEndpointsOnRefusedConnection: a dead first endpoint is
// rotated past; reads land on the live one.
func TestClientRotatesEndpointsOnRefusedConnection(t *testing.T) {
	rp := newReplPair(t)
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close() // refused connections from now on

	c := NewMulti([]string{deadURL, rp.psrv.URL}, WithRetry(3, time.Millisecond))
	if _, err := c.Head(context.Background()); err != nil {
		t.Fatalf("Head with a dead first endpoint: %v", err)
	}
	if got := c.current(); got != rp.psrv.URL {
		t.Errorf("current endpoint = %q, want rotation to %q", got, rp.psrv.URL)
	}
}

// TestClientRefollowsRedirectAfterPrimaryBlip: a read_only redirect is
// not single-use per call. The learned primary fails transiently, the
// retry rotates back to the follower, and the follower's second
// read_only answer must be followed again — with retry budget left, the
// write lands once the primary responds.
func TestClientRefollowsRedirectAfterPrimaryBlip(t *testing.T) {
	var mu sync.Mutex
	primaryHits := 0
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		primaryHits++
		first := primaryHits == 1
		mu.Unlock()
		if first {
			// The transient blip: mid-failover the primary overloads once.
			http.Error(w, "catching my breath", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprint(w, `{"state":1,"fired":1}`)
	}))
	t.Cleanup(primary.Close)

	follower := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusForbidden)
		fmt.Fprintf(w, `{"error":{"code":"read_only","message":"follower","primary":%q}}`, primary.URL)
	}))
	t.Cleanup(follower.Close)

	c := NewMulti([]string{follower.URL}, WithRetry(3, time.Millisecond))
	res, err := c.Apply(context.Background(), raiseSrc(10))
	if err != nil {
		t.Fatalf("Apply through the blipping primary: %v", err)
	}
	if res.State != 1 {
		t.Errorf("apply state = %d, want 1", res.State)
	}
	mu.Lock()
	defer mu.Unlock()
	if primaryHits != 2 {
		t.Errorf("primary saw %d requests, want 2 (the blip, then the re-followed redirect)", primaryHits)
	}
}

// TestClientFailoverAfterPromotion: the full client-side failover story —
// writes to the primary, primary dies, the follower is promoted, and
// retrying an acked key against the new primary replays instead of
// re-executing.
func TestClientFailoverAfterPromotion(t *testing.T) {
	rp := newReplPair(t)
	ctx := context.Background()
	c := NewMulti([]string{rp.psrv.URL, rp.fsrv.URL}, WithRetry(3, time.Millisecond))

	first, err := c.ApplyWithKey(ctx, raiseSrc(10), "failover-key")
	if err != nil || first.Replayed {
		t.Fatalf("first apply = %+v, %v", first, err)
	}
	rp.waitFollowerAt(t, 1)

	rp.psrv.Close() // the primary is gone
	pr, err := c.Promote(ctx, rp.fsrv.URL)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	if pr.Role != "primary" || pr.Epoch != 2 {
		t.Fatalf("promote = %+v, want primary at epoch 2", pr)
	}

	// The retried key replays on the promoted follower: the apply that was
	// acked before the crash is neither lost nor duplicated.
	again, err := c.ApplyWithKey(ctx, raiseSrc(10), "failover-key")
	if err != nil {
		t.Fatalf("retry after failover: %v", err)
	}
	if !again.Replayed {
		t.Error("acked apply re-executed after failover instead of replaying")
	}
	// And fresh writes flow to the new primary.
	if _, err := c.Apply(ctx, raiseSrc(20)); err != nil {
		t.Fatalf("fresh apply after failover: %v", err)
	}
	if _, seq := rp.frepo.Snapshot(); seq != 3 {
		t.Errorf("new primary head seq = %d, want 3 (the apply, the epoch record, the fresh apply)", seq)
	}
	st, err := c.ReplStatusOf(ctx, rp.fsrv.URL)
	if err != nil {
		t.Fatalf("ReplStatusOf: %v", err)
	}
	if st.Role != "primary" || st.Epoch != 2 {
		t.Errorf("status after promotion = %+v, want primary at epoch 2", st)
	}
}
