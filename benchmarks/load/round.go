package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"verlog/client"
)

// opResult is what one scripted request came to.
type opResult struct {
	lat     time.Duration
	err     error // transport/API error or oracle mismatch
	refused bool  // the server shed the request (429/503) rather than failing it
	apply   *client.ApplyResult
}

// tally counts operations for the result line: a refused or mismatching
// operation is a failed one.
type tally struct {
	attempted, failed, refused int
	firstErr                   error
}

func (t *tally) add(rs []opResult) {
	for _, r := range rs {
		t.attempted++
		if r.err != nil {
			t.failed++
			if r.refused {
				t.refused++
			}
			if t.firstErr == nil {
				t.firstErr = r.err
			}
		}
	}
}

// check counts one end-of-round verification as an attempted operation.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

// newClient returns a client bound to the default tenant's successor
// routes (/v1/t/default/...). Retries are off: a request that fails is a
// failed operation, not a slower one. The transport holds at most conns
// connections, one per closed-loop client. rt, when non-nil, wraps the
// transport (the traced pass times the round trip there).
func newClient(url string, conns int, rt func(http.RoundTripper) http.RoundTripper) *client.Client {
	var tr http.RoundTripper = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns}
	if rt != nil {
		tr = rt(tr)
	}
	hc := &http.Client{Transport: tr, Timeout: 2 * time.Minute}
	return client.New(url, client.WithHTTPClient(hc), client.WithRetry(0, 0)).Tenant("default")
}

// driver is one traffic source: a client, the oracle its replies are held
// against, and how many closed-loop clients share the script.
type driver struct {
	c       *client.Client
	or      oracle
	clients int
	rec     *recorder // when non-nil, receives one client span per operation
}

// run drives ops with d.clients closed-loop clients pulling from the one
// shared script: each sends its next request only when its previous one
// has been answered, so an operation is due the moment its client is free
// and its latency is due-to-done. Operation i gets id first+i and the
// idempotency key "<keyPrefix>-<id>", unique and reproducible within a
// round.
func (d driver) run(ctx context.Context, ops []op, keyPrefix string, first int) []opResult {
	results := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < d.clients; w++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) {
					return
				}
				o := &ops[i]
				id := d.rec.begin("client."+o.kind.String(), -1, first+i, tid)
				octx := withSpan(ctx, first+i, id)
				start := time.Now()
				res := execOp(octx, d.c, o, d.or, fmt.Sprintf("%s-%d", keyPrefix, first+i))
				res.lat = time.Since(start)
				d.rec.end(id)
				results[i] = res
			}
		}(w)
	}
	wg.Wait()
	return results
}

func execOp(ctx context.Context, c *client.Client, o *op, or oracle, key string) (res opResult) {
	defer func() {
		var ae *client.APIError
		if errors.As(res.err, &ae) && (ae.StatusCode == http.StatusTooManyRequests || ae.StatusCode == http.StatusServiceUnavailable) {
			res.refused = true
		}
	}()
	switch o.kind {
	case opApply:
		or.issue(o)
		ar, err := c.ApplyWithKey(ctx, o.text, key)
		if err != nil {
			return opResult{err: fmt.Errorf("apply %q: %w", o.text, err)}
		}
		if ar.Replayed {
			return opResult{err: fmt.Errorf("apply %q: answered as a replay of key %s", o.text, key)}
		}
		or.ack(o)
		return opResult{apply: ar}
	case opQuery:
		floor := or.floor(o)
		rows, err := c.Query(ctx, o.text)
		if err != nil {
			return opResult{err: fmt.Errorf("query %q: %w", o.text, err)}
		}
		return opResult{err: or.checkRows(o, floor, rows)}
	default:
		cr, err := c.Check(ctx, o.text)
		if err != nil {
			return opResult{err: fmt.Errorf("check %q: %w", o.text, err)}
		}
		if !cr.OK {
			return opResult{err: fmt.Errorf("check %q: rejected: %v", o.text, cr.Errors())}
		}
		return opResult{}
	}
}

// verifyRound is the oracle + durability check: the model against /query,
// the journal summary against the acknowledged applies (none missing,
// none doubled, numbered 1..N).
func verifyRound(ctx context.Context, c *client.Client, or oracle, acked int) error {
	if err := or.verify(ctx, c); err != nil {
		return err
	}
	log, err := c.Log(ctx)
	if err != nil {
		return fmt.Errorf("oracle: reading the log: %w", err)
	}
	if len(log) != acked {
		return fmt.Errorf("oracle: journal holds %d updates, %d were acknowledged", len(log), acked)
	}
	for i, e := range log {
		if e.Seq != i+1 {
			return fmt.Errorf("oracle: journal entry %d carries seq %d", i+1, e.Seq)
		}
	}
	return nil
}

// checkStates verifies that the state numbers of the acknowledged applies
// are exactly 1..N: with one client in order, with two as a set.
func checkStates(results []opResult) (acked int, err error) {
	var states []int
	for _, r := range results {
		if r.apply != nil {
			states = append(states, r.apply.State)
		}
	}
	sort.Ints(states)
	for i, s := range states {
		if s != i+1 {
			return len(states), fmt.Errorf("oracle: acknowledged state numbers are not 1..%d (position %d holds %d)", len(states), i+1, s)
		}
	}
	return len(states), nil
}

// runRound plays one full round against n, which must be stopped and
// whose directory must not exist: start with -init, warm up, measured
// script, verify, kill, restart on the same directory, verify again.
// The node is left stopped.
func runRound(ctx context.Context, in *instance, n node, initFile string, t *tally) (roundStats, error) {
	st := roundStats{}
	in.oracle.reset()
	clients := in.spec.clients

	setupStart := time.Now()
	if err := n.start(initFile); err != nil {
		return nil, fmt.Errorf("starting server: %w", err)
	}
	defer n.kill()
	c := newClient(n.url(), clients, nil)
	warm := driver{c: c, or: in.oracle, clients: 1}.run(ctx, in.script.warm, "warm", 0)
	st["setup_s"] = time.Since(setupStart).Seconds()
	t.add(warm)

	before, err := takeSample(ctx, n, c)
	if err != nil {
		return nil, fmt.Errorf("sampling server: %w", err)
	}
	scriptStart := time.Now()
	measured := driver{c: c, or: in.oracle, clients: clients}.run(ctx, in.script.measured, "op", 0)
	wall := time.Since(scriptStart)
	after, err := takeSample(ctx, n, c)
	if err != nil {
		return nil, fmt.Errorf("sampling server: %w", err)
	}
	t.add(measured)

	acked, err := checkStates(append(warm, measured...))
	t.check(err)
	t.check(verifyRound(ctx, c, in.oracle, acked))

	restartStart := time.Now()
	if err := n.kill(); err != nil {
		return nil, fmt.Errorf("killing server: %w", err)
	}
	if err := n.start(""); err != nil {
		return nil, fmt.Errorf("restarting server: %w", err)
	}
	c = newClient(n.url(), clients, nil)
	verr := verifyRound(ctx, c, in.oracle, acked)
	st["restart_s"] = time.Since(restartStart).Seconds()
	t.check(verr)

	var applyMS, queryMS []float64
	for i, r := range measured {
		if r.err != nil {
			continue
		}
		switch in.script.measured[i].kind {
		case opApply:
			applyMS = append(applyMS, ms(r.lat))
		case opQuery:
			queryMS = append(queryMS, ms(r.lat))
		}
	}
	applies := float64(len(applyMS))
	if applies == 0 || len(queryMS) == 0 {
		return st, errors.New("no successful applies or queries in the measured script")
	}
	st["apply_p50_ms"] = percentile(applyMS, 50)
	st["apply_p90_ms"] = percentile(applyMS, 90)
	st["query_p50_ms"] = percentile(queryMS, 50)
	st["query_p90_ms"] = percentile(queryMS, 90)
	st["applies_per_s"] = applies / wall.Seconds()
	st["cpu_ms_per_apply"] = 1000 * (after.cpuUserS + after.cpuSysS - before.cpuUserS - before.cpuSysS) / applies
	st["alloc_mb_per_apply"] = (after.mem.TotalAlloc - before.mem.TotalAlloc) / 1e6 / applies
	st["peak_rss_mb"] = after.hwmKiB * 1024 / 1e6
	st["disk_write_kb_per_apply"] = (after.writeBytes - before.writeBytes) / 1e3 / applies
	st["journal_bytes_per_apply"] = (after.journalBytes - before.journalBytes) / applies

	// The server process seen from outside, and the program's own counters.
	st["proc.mallocs_per_apply"] = (after.mem.Mallocs - before.mem.Mallocs) / applies
	st["proc.gc_cycles_per_apply"] = (after.mem.NumGC - before.mem.NumGC) / applies
	st["proc.gc_pause_ms_per_apply"] = (after.mem.PauseTotalNs - before.mem.PauseTotalNs) / 1e6 / applies
	st["proc.heap_inuse_mb_end"] = after.mem.HeapInuse / 1e6
	st["proc.cpu_sys_ms_per_apply"] = 1000 * (after.cpuSysS - before.cpuSysS) / applies
	delta := func(name string) float64 { return after.metrics[name] - before.metrics[name] }
	if n := delta("verlog_commit_wait_seconds_count"); n > 0 {
		st["repository.commit_wait_ms"] = 1000 * delta("verlog_commit_wait_seconds_sum") / n
	}
	if b := delta("verlog_commit_batches_total"); b > 0 {
		st["repository.recs_per_fsync"] = delta("verlog_commit_batch_records_total") / b
	}
	hits, misses := delta("verlog_plan_cache_hits_total"), delta("verlog_plan_cache_misses_total")
	if a := delta("verlog_applies_total"); a > 0 {
		st["repository.evals_per_apply"] = (hits + misses) / a
	}
	if hits+misses > 0 {
		st["eval.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
	return st, nil
}

// runDir creates a fresh directory under parent for one run; the caller
// removes it. The command puts it on the checkout's filesystem, not in
// /tmp, so fsyncs meet the same disk the repository would in use.
func runDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "run-")
}
