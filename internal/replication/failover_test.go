package replication_test

import (
	"errors"
	"math"
	"net/http/httptest"
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
