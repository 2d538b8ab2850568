package replication_test

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"verlog/internal/fsio"
	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/server"
	"verlog/internal/term"
)

// TestFailoverCrashSweep is the replication counterpart of the
// single-node crash sweep: the primary's filesystem is killed at every
// durable operation (clean cut and torn write), the follower is drained
// and promoted, and the promoted head must hold every acknowledged apply
// exactly once — a client retrying its acked keys after failover gets
// replays, never re-executions, and a replay of the follower's own
// journal reproduces its head bit for bit.
func TestFailoverCrashSweep(t *testing.T) {
	progs := make([]*term.Program, 5)
	keys := make([]string, 5)
	for i := range progs {
		progs[i] = raiseProgram(t, 7*(i+1))
		keys[i] = "sweep-key-" + string(rune('a'+i))
	}

	// Probe pass 1: durable ops spent on Init alone. Those fault points
	// belong to the single-node crash sweep; this sweep arms only the
	// points a replicated workload adds.
	probe := fsio.NewFault()
	if _, err := repository.InitFS(t.TempDir()+"/probe-init", testBase(t), probe); err != nil {
		t.Fatalf("probe init: %v", err)
	}
	initOps := probe.Count()

	// Probe pass 2: the full workload, fault-free, to count its ops.
	probe2 := fsio.NewFault()
	prepo, err := repository.InitFS(t.TempDir()+"/probe-full", testBase(t), probe2)
	if err != nil {
		t.Fatalf("probe full init: %v", err)
	}
	for i, p := range progs {
		if _, _, _, err := prepo.ApplyKey(p, keys[i]); err != nil {
			t.Fatalf("probe apply %d: %v", i, err)
		}
	}
	totalOps := probe2.Count()
	if totalOps <= initOps {
		t.Fatalf("workload added no durable ops (init %d, total %d)", initOps, totalOps)
	}
	t.Logf("sweeping fault points %d..%d (clean and torn)", initOps+1, totalOps)

	// FailAt is 1-based: Init spends points 1..initOps, so the workload's
	// own points are initOps+1..totalOps.
	for point := initOps + 1; point <= totalOps; point++ {
		for _, tear := range []bool{false, true} {
			name := "clean"
			if tear {
				name = "torn"
			}
			runFailover(t, point, name, progs, keys)
		}
	}
}

// runFailover executes one armed run: primary dies at the given durable
// op, the follower is drained, the primary's server is shut down, the
// follower promoted, and the acked-exactly-once invariant checked.
func runFailover(t *testing.T, point int, mode string, progs []*term.Program, keys []string) {
	t.Helper()
	fault := fsio.NewFault()
	fault.FailAt(point, mode == "torn")
	prepo, err := repository.InitFS(t.TempDir()+"/primary", testBase(t), fault)
	if err != nil {
		t.Fatalf("point %d %s: init failed before the armed op: %v", point, mode, err)
	}
	pnode := replication.NewNode(prepo, replication.Config{FollowerTTL: time.Hour})
	psrv := httptest.NewServer(server.New(prepo, server.WithReplication(pnode)))
	defer psrv.Close()

	frepo, err := repository.Init(t.TempDir()+"/follower", testBase(t))
	if err != nil {
		t.Fatalf("point %d %s: init follower: %v", point, mode, err)
	}
	fnode := replication.NewNode(frepo, replication.Config{
		PrimaryURL: psrv.URL,
		PollWait:   100 * time.Millisecond,
	})
	fnode.Start()
	defer fnode.Stop()

	// Drive the workload until the injected fault kills the primary.
	acked := -1 // highest workload index whose apply was acknowledged
	var werr error
	for i, p := range progs {
		if _, _, _, werr = prepo.ApplyKey(p, keys[i]); werr != nil {
			break
		}
		acked = i
	}
	if werr != nil && !errors.Is(werr, fsio.ErrInjected) {
		t.Fatalf("point %d %s: workload died of %v, not the injected fault", point, mode, werr)
	}
	if werr == nil && !fault.Crashed() {
		t.Fatalf("point %d %s: armed fault never fired", point, mode)
	}

	// Drain: everything the primary published is streamable from memory
	// even though its disk is dead. Published >= acked by construction
	// (an apply acks only after publish), so draining to the published
	// head covers every acknowledged apply.
	_, phead, _ := prepo.EntriesAfter(math.MaxInt)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, fseq := frepo.Snapshot(); fseq >= phead {
			break
		}
		if time.Now().After(deadline) {
			_, fseq := frepo.Snapshot()
			t.Fatalf("point %d %s: follower stuck at seq %d, primary published %d", point, mode, fseq, phead)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Kill the primary's server and promote the follower.
	psrv.Close()
	epoch, err := fnode.Promote(0)
	if err != nil || epoch != 2 {
		t.Fatalf("point %d %s: Promote = %d, %v; want epoch 2", point, mode, epoch, err)
	}

	// No acked apply lost: every acknowledged key must already be on the
	// promoted head, so retrying it replays instead of re-executing.
	_, headAfterDrain := frepo.Snapshot()
	if headAfterDrain < acked+1 {
		t.Fatalf("point %d %s: follower head %d lost acked applies (want >= %d)", point, mode, headAfterDrain, acked+1)
	}
	for i := 0; i <= acked; i++ {
		_, entry, replayed, err := frepo.ApplyKey(progs[i], keys[i])
		if err != nil {
			t.Fatalf("point %d %s: retry of acked key %q: %v", point, mode, keys[i], err)
		}
		if !replayed {
			t.Fatalf("point %d %s: acked key %q re-executed after promotion (seq %d) — duplicate apply", point, mode, keys[i], entry.Seq)
		}
	}

	// None duplicated: each key appears at most once in the promoted
	// journal, and the journal replays to exactly the promoted head.
	if err := frepo.Verify(); err != nil {
		t.Fatalf("point %d %s: promoted follower Verify: %v", point, mode, err)
	}
	seen := map[string]int{}
	for _, e := range frepo.Log() {
		if e.Key != "" {
			seen[e.Key]++
		}
	}
	for k, c := range seen {
		if c > 1 {
			t.Fatalf("point %d %s: key %q committed %d times", point, mode, k, c)
		}
	}
	ref, err := repository.Init(t.TempDir()+"/reference", testBase(t))
	if err != nil {
		t.Fatalf("point %d %s: init reference: %v", point, mode, err)
	}
	if err := ref.ApplyReplicaBatch(frepo.Log()); err != nil {
		t.Fatalf("point %d %s: reference replay: %v", point, mode, err)
	}
	rh, rseq := ref.Snapshot()
	fh, fseq := frepo.Snapshot()
	if rseq != fseq || !rh.Equal(fh) {
		t.Fatalf("point %d %s: promoted head (seq %d) diverges from a clean replay of its own journal (seq %d)", point, mode, fseq, rseq)
	}
}

// headOf returns repo's published head seq.
func headOf(repo *repository.Repository) int {
	_, seq := repo.Snapshot()
	return seq
}

// TestDoubleFailover: O dies and N is promoted at P. F, a follower that
// lagged behind P, syncs once with N. Then N dies too, holding a record F
// never saw, and F is promoted: its epoch is 3, past both earlier ones.
// N rejoins F with a suffix past F's promotion point, so it re-bootstraps
// from F's snapshot and converges onto F's history.
func TestDoubleFailover(t *testing.T) {
	o := startPrimary(t, replication.Config{})
	n := startFollower(t, o.srv.URL)
	frepo, err := repository.Init(t.TempDir()+"/lagging", testBase(t))
	if err != nil {
		t.Fatal(err)
	}
	f := followAs(t, frepo, o.srv.URL, "lagging")
	for i := 1; i <= 2; i++ {
		if _, err := o.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, o.repo, n.repo, 2)
	waitConverged(t, o.repo, f.repo, 2)
	f.node.Stop() // F lags: it misses what comes next

	for i := 3; i <= 4; i++ {
		if _, err := o.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, o.repo, n.repo, 4)
	o.srv.Close()
	if epoch, err := n.node.Promote(0); err != nil || epoch != 2 {
		t.Fatalf("Promote N = %d, %v; want epoch 2", epoch, err)
	}

	// F, behind the promotion point, streams N's history once.
	f = followAs(t, f.repo, n.srv.URL, "lagging-on-n")
	waitFor(t, "F caught up with N under epoch 2", func() bool {
		return f.repo.Epoch() == 2 && headOf(f.repo) == headOf(n.repo)
	})
	f.node.Stop()

	// N runs one record ahead of F, then dies; F is promoted.
	if _, err := n.repo.Apply(raiseProgram(t, 500)); err != nil {
		t.Fatal(err)
	}
	n.srv.Close()
	if epoch, err := f.node.Promote(0); err != nil || epoch != 3 {
		t.Fatalf("Promote F = %d, %v; want epoch 3", epoch, err)
	}
	if _, err := f.repo.Apply(raiseProgram(t, 7)); err != nil {
		t.Fatal(err)
	}

	// N rejoins F: its record past F's promotion point forces a bootstrap.
	// N's head is F's already: converged means bootstrapped from F.
	followAs(t, n.repo, f.srv.URL, "deposed-n")
	head := headOf(f.repo)
	waitFor(t, "N bootstrapped from F", func() bool { return n.repo.SnapshotSeq() == head })
	waitConverged(t, f.repo, n.repo, head)
	waitFor(t, "N under epoch 3", func() bool { return n.repo.Epoch() == 3 })
}

// TestPromotePastEpochSeenUpstream: a follower can learn of an upstream
// epoch from a response header before it holds the records of that epoch
// (the batch stopped short of them). Promoting it must still go past that
// epoch: an explicit target at it is refused, and Promote(0) gives 3.
func TestPromotePastEpochSeenUpstream(t *testing.T) {
	src, err := repository.Init(t.TempDir()+"/src", testBase(t))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 2; i++ {
		if _, err := src.Apply(raiseProgram(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	// An upstream at epoch 2 whose log goes on past src's records; it
	// serves src's records and stops short of the rest.
	fake := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/repl/stream") {
			http.NotFound(w, r)
			return
		}
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		entries, head, _ := src.EntriesAfter(after)
		if len(entries) == 0 {
			time.Sleep(20 * time.Millisecond)
		}
		var frames []byte
		for _, e := range entries {
			frames = e.AppendRecord(frames)
		}
		w.Header().Set(replication.HeaderEpoch, "2")
		w.Header().Set(replication.HeaderSeq, strconv.Itoa(head+1))
		w.Write(frames)
	}))
	t.Cleanup(fake.Close)
	repo, err := repository.Init(t.TempDir()+"/follower", testBase(t))
	if err != nil {
		t.Fatal(err)
	}
	f := followOn(t, repo, fake.URL)
	waitConverged(t, src, f.repo, 2)

	if _, err := f.node.Promote(2); !errors.Is(err, replication.ErrBadPromoteTarget) {
		t.Errorf("Promote(2) = %v, want ErrBadPromoteTarget: epoch 2 was seen upstream", err)
	}
	if epoch, err := f.node.Promote(0); err != nil || epoch != 3 {
		t.Errorf("Promote(0) = %d, %v; want 3, past the epoch seen upstream", epoch, err)
	}
}

// TestEpochFoldedIntoCheckpoint: the promoted node compacts, folding the
// promotion into its checkpoint. A follower behind the checkpoint gets
// snapshot_required, and a deposed primary whose head is the checkpoint's
// seq is past the promotion point: both bootstrap and converge.
func TestEpochFoldedIntoCheckpoint(t *testing.T) {
	o := startPrimary(t, replication.Config{})
	n := startFollower(t, o.srv.URL)
	frepo, err := repository.Init(t.TempDir()+"/lagging", testBase(t))
	if err != nil {
		t.Fatal(err)
	}
	f := followAs(t, frepo, o.srv.URL, "lagging")
	for i := 1; i <= 2; i++ {
		if _, err := o.repo.Apply(raiseProgram(t, i)); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, o.repo, n.repo, 2)
	waitConverged(t, o.repo, f.repo, 2)
	f.node.Stop()
	o.srv.Close()

	if epoch, err := n.node.Promote(0); err != nil || epoch != 2 {
		t.Fatalf("Promote = %d, %v; want epoch 2", epoch, err)
	}
	for i := 3; i <= 4; i++ {
		if _, err := n.repo.Apply(raiseProgram(t, 10*i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.repo.Compact(); err != nil {
		t.Fatal(err)
	}
	head := headOf(n.repo)
	if got := n.repo.SnapshotSeq(); got != head {
		t.Fatalf("N's checkpoint is at %d, want its head %d", got, head)
	}
	// The deposed primary ran on alone, up to the checkpoint's seq.
	for i := 0; headOf(o.repo) < head; i++ {
		if _, err := o.repo.Apply(raiseProgram(t, 900+i)); err != nil {
			t.Fatal(err)
		}
	}

	f = followAs(t, f.repo, n.srv.URL, "lagging-on-n")
	followAs(t, o.repo, n.srv.URL, "deposed-o")
	for name, repo := range map[string]*repository.Repository{"lagging follower": f.repo, "deposed primary": o.repo} {
		waitFor(t, name+" bootstrapped from N", func() bool { return repo.SnapshotSeq() == head })
		waitConverged(t, n.repo, repo, head)
		waitFor(t, name+" under epoch 2", func() bool { return repo.Epoch() == 2 })
	}
}
