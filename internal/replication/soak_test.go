package replication_test

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"verlog/client"
)

// TestSoakTwoProcessFailover is the out-of-process soak: two real
// verlog-server processes, a replication link over real TCP, the Figure 2
// enterprise workload as traffic, a kill -9 of the primary, a promotion,
// and the acked-exactly-once check against the survivor. Gated behind
// VERLOG_SOAK=1 (run via `make soak`) because it builds the binary and
// forks processes.
func TestSoakTwoProcessFailover(t *testing.T) {
	if os.Getenv("VERLOG_SOAK") == "" {
		t.Skip("two-process soak skipped; set VERLOG_SOAK=1 (or run `make soak`)")
	}
	tmp := t.TempDir()
	bin := filepath.Join(tmp, "verlog-server")
	build := exec.Command("go", "build", "-o", bin, "verlog/cmd/verlog-server")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building verlog-server: %v\n%s", err, out)
	}
	initFile := filepath.Join(tmp, "init.vlg")
	if err := os.WriteFile(initFile, []byte(initSrc), 0o644); err != nil {
		t.Fatalf("writing init base: %v", err)
	}

	pURL := startServerProc(t, bin, filepath.Join(tmp, "primary"),
		"-init", initFile)
	// A tight readiness bound so the kill below flips /v1/readyz within a
	// couple of seconds of the primary dying.
	fURL := startServerProc(t, bin, filepath.Join(tmp, "follower"),
		"-follow", pURL, "-follower-id", "soak-follower",
		"-ready-max-lag", "5", "-ready-max-lag-seconds", "2s")

	ctx := context.Background()
	c := client.NewMulti([]string{pURL, fURL}, client.WithRetry(5, 50*time.Millisecond))

	// E2 traffic: the paper's Figure 2 enterprise update interleaved with
	// salary raises, each apply under its own idempotency key.
	const enterprise = `
rule1: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr / sal -> S, S' = S * 1.1 + 200.
rule2: mod[E].sal -> (S, S') <- E.isa -> empl / sal -> S, !E.pos -> mgr, S' = S * 1.1.
rule3: del[mod(E)].* <- mod(E).isa -> empl / boss -> B / sal -> SE, mod(B).isa -> empl / sal -> SB, SE > SB.
rule4: ins[mod(E)].isa -> hpe <- mod(E).isa -> empl / sal -> S, S > 4500, !del[mod(E)].isa -> empl.
`
	const applies = 30
	progs := make([]string, applies)
	keys := make([]string, applies)
	lastSeq := 0
	for i := range progs {
		if i%5 == 0 {
			progs[i] = enterprise
		} else {
			progs[i] = fmt.Sprintf(
				`raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + %d.`, i+1)
		}
		keys[i] = fmt.Sprintf("soak-%03d", i)
		res, err := c.ApplyWithKey(ctx, progs[i], keys[i])
		if err != nil {
			t.Fatalf("apply %d: %v", i, err)
		}
		lastSeq = res.State
	}
	if lastSeq != applies {
		t.Fatalf("last acked state = %d, want %d", lastSeq, applies)
	}

	// Drain the follower, then kill -9 the primary.
	waitSoak(t, "follower caught up", func() bool {
		st, err := c.ReplStatusOf(ctx, fURL)
		return err == nil && st.HeadSeq == applies && st.LagSeq == 0
	})
	// A caught-up follower is ready: a load balancer may route reads to it.
	waitSoak(t, "follower ready while caught up", func() bool {
		return c.HealthyOf(ctx, fURL) == nil
	})
	killServerProc(t, pURL)

	// With the primary dead, the follower's last sync ages past
	// -ready-max-lag-seconds and /v1/readyz flips to 503 naming repl_lag —
	// the signal that tells the balancer to stop routing before anyone
	// notices stale reads.
	waitSoak(t, "follower not ready after primary death", func() bool {
		err := c.HealthyOf(ctx, fURL)
		return err != nil && strings.Contains(err.Error(), "repl_lag")
	})

	pr, err := c.Promote(ctx, fURL)
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// The promotion is the journal's record after the last apply.
	if pr.Role != "primary" || pr.Epoch != 2 || pr.HeadSeq != applies+1 {
		t.Fatalf("promote = %+v, want primary, epoch 2, head %d", pr, applies+1)
	}

	// Every acked apply survived the failover exactly once: the retry of
	// each key replays; none re-executes.
	for i := range progs {
		res, err := c.ApplyWithKey(ctx, progs[i], keys[i])
		if err != nil {
			t.Fatalf("replay %d after failover: %v", i, err)
		}
		if !res.Replayed {
			t.Fatalf("apply %d (key %s) re-executed after failover", i, keys[i])
		}
	}
	// And the promoted node accepts fresh writes, after the epoch record.
	res, err := c.ApplyWithKey(ctx, progs[1], "soak-after-failover")
	if err != nil || res.State != applies+2 {
		t.Fatalf("fresh apply after failover = %+v, %v; want state %d", res, err, applies+2)
	}

	// Promotion ended the follower role, so readiness is restored.
	waitSoak(t, "promoted node ready", func() bool {
		return c.HealthyOf(ctx, fURL) == nil
	})

	// The final fleet table — the survivor serving, the dead primary as a
	// down row — is the soak's human-readable verdict; CI uploads it as a
	// build artifact when VERLOG_SOAK_STATUS names a file.
	table := client.FleetTable(c.FleetStatus(ctx))
	t.Logf("final fleet status:\n%s", table)
	if !strings.Contains(table, "primary") || !strings.Contains(table, "down") {
		t.Fatalf("fleet table missing promoted primary or down node:\n%s", table)
	}
	if out := os.Getenv("VERLOG_SOAK_STATUS"); out != "" {
		report := fmt.Sprintf("verlog soak: fleet status after kill -9 of %s and promotion of %s\n\n%s",
			pURL, fURL, table)
		if err := os.WriteFile(out, []byte(report), 0o644); err != nil {
			t.Fatalf("writing fleet status artifact: %v", err)
		}
	}
}

// procs tracks the started server processes by URL so the kill step can
// find the right one.
var soakProcs = map[string]*exec.Cmd{}

// startServerProc starts one verlog-server on a fresh port and waits for
// it to serve.
func startServerProc(t *testing.T, bin, dir string, extra ...string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving port: %v", err)
	}
	addr := l.Addr().String()
	l.Close()
	url := "http://" + addr
	args := append([]string{"-dir", dir, "-addr", addr}, extra...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	soakProcs[url] = cmd
	t.Cleanup(func() {
		if cmd.Process != nil {
			cmd.Process.Kill()
			cmd.Wait()
		}
	})
	waitSoak(t, "server at "+url, func() bool {
		resp, err := http.Get(url + "/v1/repl/status")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})
	return url
}

// killServerProc delivers SIGKILL — the unclean death the failover story
// is about — and reaps the process.
func killServerProc(t *testing.T, url string) {
	t.Helper()
	cmd := soakProcs[url]
	if cmd == nil {
		t.Fatalf("no process tracked for %s", url)
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("kill -9 %s: %v", url, err)
	}
	cmd.Wait()
	delete(soakProcs, url)
}

func waitSoak(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(25 * time.Millisecond)
	}
	t.Fatalf("soak: timed out waiting for %s", what)
}
