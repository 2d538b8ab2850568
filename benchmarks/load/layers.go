package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"verlog/internal/core"
	"verlog/internal/eval"
	"verlog/internal/fsio"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/safety"
	"verlog/internal/storage"
	"verlog/internal/strata"
	"verlog/internal/term"
)

// The traced run trades the separate server process for visibility: the
// same script, cut to a quarter, is replayed in this process where the
// benchmark can stand at every layer boundary.
//
//   - Pass H drives client -> net/http -> server.New(repo) twice, chunk by
//     chunk in alternation: once plain and once with the transport, the
//     handler and the filesystem wrapped. The wrapped twin yields the
//     client/server/tenant/fsio numbers; the difference between the twins
//     is the tracing overhead.
//   - Pass D replays the script directly against a repository: the real
//     repository.ApplyKey, then each layer's public function on the frozen
//     head that apply saw — beside the same stream on a ~100-object base,
//     for the in-run scaling ratio.
const (
	traceFraction = 4  // the traced passes run 1/4 of the measured script
	chunkOps      = 10 // pass H alternates between the twins every chunkOps operations
	checkEpilogue = 20 // POST /check samples behind server.check_ms on every workload
	repeats       = 3  // samples of the once-per-run costs (base load, open, snapshot load)
)

// quarter cuts the instance's measured script for the traced passes.
func quarter(in *instance) {
	n := len(in.script.measured) / traceFraction
	if n < 20 {
		n = min(20, len(in.script.measured))
	}
	in.script.measured = in.script.measured[:n]
}

// passH runs the HTTP pass. plain and traced are two instances built from
// the same seed (each owns its oracle), already cut by quarter. It returns
// the traced twin's head text for the cross-check against pass D.
func passH(ctx context.Context, plain, traced *instance, dir, initFile string, rec *recorder, t *tally) (roundStats, string, error) {
	clients := plain.spec.clients
	current := &atomic.Int64{}
	current.Store(-1)
	cfs := &countingFS{next: fsio.OS, rec: rec, current: current}
	th := &tracedHandler{rec: rec, current: current, stats: map[int]handlerStat{}}

	type twin struct {
		in      *instance
		node    *inprocNode
		drv     driver
		results []opResult
	}
	twins := [2]*twin{
		{in: plain, node: &inprocNode{repoDir: filepath.Join(dir, "h-plain")}},
		{in: traced, node: &inprocNode{repoDir: filepath.Join(dir, "h-traced"), fs: cfs,
			wrap: func(h http.Handler) http.Handler { th.next = h; return th }}},
	}
	for i, tw := range twins {
		tw.in.oracle.reset()
		if err := tw.node.start(initFile); err != nil {
			return nil, "", fmt.Errorf("pass H: %w", err)
		}
		defer tw.node.kill()
		tw.drv = driver{or: tw.in.oracle, clients: clients}
		if i == 1 {
			tw.drv.rec = rec
			tw.drv.c = newClient(tw.node.url(), clients, func(next http.RoundTripper) http.RoundTripper {
				return tracedTransport{next: next, rec: rec}
			})
		} else {
			tw.drv.c = newClient(tw.node.url(), clients, nil)
		}
		warm := tw.drv
		warm.clients, warm.rec = 1, nil
		tw.results = warm.run(ctx, tw.in.script.warm, "warm", 0)
		t.add(tw.results)
	}
	warmOps := len(plain.script.warm)

	fsBefore := cfs.counts()
	ops := len(plain.script.measured)
	for off := 0; off < ops; off += chunkOps {
		end := min(off+chunkOps, ops)
		order := [2]int{0, 1}
		if (off/chunkOps)%2 == 1 {
			order = [2]int{1, 0}
		}
		for _, i := range order {
			tw := twins[i]
			rs := tw.drv.run(ctx, tw.in.script.measured[off:end], "op", warmOps+off)
			t.add(rs)
			tw.results = append(tw.results, rs...)
		}
	}
	fsDelta := cfs.counts().sub(fsBefore)

	var headText string
	for i, tw := range twins {
		acked, err := checkStates(tw.results)
		t.check(err)
		t.check(verifyRound(ctx, tw.drv.c, tw.in.oracle, acked))
		if i == 1 {
			if headText, err = tw.drv.c.Head(ctx); err != nil {
				return nil, "", fmt.Errorf("pass H: %w", err)
			}
		}
	}

	// /check is on mixed_rw's script only; an epilogue gives every workload
	// its server.check_ms.
	checks := make([]op, checkEpilogue)
	for i := range checks {
		checks[i] = op{kind: opCheck, text: traced.checkText}
	}
	t.add(twins[1].drv.run(ctx, checks, "check", warmOps+ops))

	ls := samples{}
	var plainApply, tracedApply []float64
	applies := 0.0
	script := append(append([]op(nil), traced.script.measured...), checks...)
	for j, o := range script {
		id := warmOps + j
		hs, seen := th.stats[id]
		if !seen {
			continue // the request failed before reaching the handler; already tallied
		}
		switch o.kind {
		case opApply:
			r := twins[1].results[id]
			if r.err != nil || r.apply.Timings == nil {
				continue
			}
			applies++
			tracedApply = append(tracedApply, ms(r.lat))
			if p := twins[0].results[id]; p.err == nil {
				plainApply = append(plainApply, ms(p.lat))
			}
			tm := r.apply.Timings
			below := time.Duration(tm.ParseUS+tm.SafetyUS+tm.EvalUS+tm.ConstraintsUS+tm.CommitUS) * time.Microsecond
			ls.add("client.apply_overhead_ms", ms(r.lat-hs.dur))
			ls.add("server.apply_self_ms", ms(hs.dur-below))
		case opQuery:
			ls.add("server.query_ms", ms(hs.dur))
			ls.add("server.resp_bytes_per_query", float64(hs.bytes))
		case opCheck:
			ls.add("server.check_ms", ms(hs.dur))
		}
	}
	st := ls.medians()
	if applies > 0 {
		st["fsio.fsyncs_per_apply"] = float64(fsDelta.Syncs) / applies
		st["fsio.sync_ms_per_apply"] = ms(fsDelta.SyncTime) / applies
		st["fsio.write_bytes_per_apply"] = float64(fsDelta.WriteBytes) / applies
		st["fsio.write_ms_per_apply"] = ms(fsDelta.WriteTime) / applies
		st["fsio.renames_per_apply"] = float64(fsDelta.Renames) / applies
	}
	if p := percentile(plainApply, 50); p > 0 {
		st["trace.overhead_pct"] = 100 * (percentile(tracedApply, 50) - p) / p
	}

	// The tenant layer at its own boundary: the Acquire/Release pair every
	// request pays, on the manager that just served the script.
	const batch = 200
	var acquire []float64
	for b := 0; b < 11; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			tn, err := twins[1].node.tenants.Acquire("default", false)
			if err != nil {
				return nil, "", fmt.Errorf("pass H: tenant acquire: %w", err)
			}
			twins[1].node.tenants.Release(tn)
		}
		acquire = append(acquire, us(time.Since(start))/batch)
	}
	st["tenant.acquire_us"] = median(acquire)
	return st, headText, nil
}

// passD replays the script directly, layer by layer. It returns the final
// head text for the cross-check against pass H.
func passD(in *instance, dir string, rec *recorder) (roundStats, string, error) {
	ls := samples{}
	baseText := in.baseText()
	var ob *objectbase.Base
	for i := 0; i < repeats; i++ {
		var err error
		ls.add("parser.base_load_ms", ms(rec.timed("parser.ObjectBase", -1, -1, func() {
			ob, err = parser.ObjectBase(baseText, "base.vlg")
		})))
		if err != nil {
			return nil, "", fmt.Errorf("pass D: %w", err)
		}
	}

	current := &atomic.Int64{}
	current.Store(-1)
	cfs := &countingFS{next: fsio.OS, rec: rec, current: current}
	repoDir := filepath.Join(dir, "d-repo")
	repo, err := repository.InitFS(repoDir, ob, cfs)
	if err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	defer func() { repo.Close() }()
	small, err := repository.InitFS(filepath.Join(dir, "d-small"), in.small, fsio.OS)
	if err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	defer small.Close()
	smallProgram := func(o op) (*term.Program, error) {
		text := o.text
		if in.smallText != nil {
			text = in.smallText(o)
		}
		return parser.Program(text, "request")
	}

	for i, o := range in.script.warm {
		if o.kind != opApply {
			continue
		}
		p, err := parser.Program(o.text, "request")
		if err != nil {
			return nil, "", fmt.Errorf("pass D: %w", err)
		}
		if _, _, _, err := repo.ApplyKey(p, fmt.Sprintf("warm-%d", i), core.WithTrace()); err != nil {
			return nil, "", fmt.Errorf("pass D: warm-up apply: %w", err)
		}
		if sp, err := smallProgram(o); err != nil {
			return nil, "", fmt.Errorf("pass D: %w", err)
		} else if _, err := small.Apply(sp, core.WithTrace()); err != nil {
			return nil, "", fmt.Errorf("pass D: warm-up apply on the small base: %w", err)
		}
	}

	var bigMS, smallMS []float64
	for i, o := range in.script.measured {
		head, err := repo.Head()
		if err != nil {
			return nil, "", fmt.Errorf("pass D: %w", err)
		}
		switch o.kind {
		case opQuery:
			root := rec.begin("op.query", -1, i, 0)
			var qerr error
			ls.add("eval.query_ms", ms(rec.timed("core.Query", root, i, func() { _, qerr = core.Query(head, o.text) })))
			rec.end(root)
			if qerr != nil {
				return nil, "", fmt.Errorf("pass D: query %q: %w", o.text, qerr)
			}
		case opApply:
			root := rec.begin("op.apply", -1, i, 0)
			var p *term.Program
			var perr error
			ls.add("parser.program_us", us(rec.timed("parser.Program", root, i, func() { p, perr = parser.Program(o.text, "request") })))
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}

			// The real apply first, so that it pays what a server's apply
			// pays — including the frozen head's lazy literal index, which
			// the calls below would otherwise have built for it. Its own
			// Stats give the evaluator's stages in situ.
			var applied *eval.Result
			fs0 := cfs.counts()
			id := rec.begin("repository.ApplyKey", root, i, 0)
			current.Store(int64(id))
			start := time.Now()
			applied, _, _, perr = repo.ApplyKey(p, fmt.Sprintf("op-%d", i), core.WithTrace())
			applyD := time.Since(start)
			current.Store(-1)
			rec.end(id)
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: apply %q: %w", o.text, perr)
			}
			fsD := cfs.counts().sub(fs0).Time()
			stats := applied.Stats
			var fixpoint time.Duration
			iterations := 0
			for _, s := range stats.Strata {
				fixpoint += s.Duration
				iterations += s.Iterations
			}
			evalD := stats.Safety + stats.Eval // the extent of core.Engine.Apply inside ApplyKey
			ls.add("eval.run_ms", ms(evalD))
			ls.add("eval.fixpoint_ms", ms(fixpoint))
			ls.add("eval.copy_ms", ms(stats.Copy))
			ls.add("eval.unattributed_ms", ms(stats.Eval-stats.Stratify-fixpoint-stats.Copy))
			ls.add("eval.iterations", float64(iterations))
			ls.add("eval.fired", float64(applied.Fired))

			// Then each layer's public function on the head that apply saw
			// (frozen, so still intact), one span each.
			ls.add("safety.program_us", us(rec.timed("safety.Program", root, i, func() { perr = safety.Program(p) })))
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}
			ls.add("strata.stratify_us", us(rec.timed("strata.Stratify", root, i, func() { _, perr = strata.Stratify(p) })))
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}
			ls.add("eval.compile_ms", ms(rec.timed("eval.Compile", root, i, func() { _, perr = eval.Compile(head, p, false) })))
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}
			ls.add("objectbase.index_build_ms", ms(rec.timed("objectbase.BuildIndex", root, i, func() { objectbase.BuildIndex(head) })))

			var res *eval.Result
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			rec.timed("core.Engine.Apply", root, i, func() { res, perr = core.New(core.WithTrace()).Apply(head, p) })
			runtime.ReadMemStats(&m1)
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: apply %q: %w", o.text, perr)
			}
			ls.add("eval.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			ls.add("eval.finalize_ms", ms(rec.timed("eval.Finalize", root, i, func() { eval.Finalize(res.Result) })))

			var diff objectbase.Diff
			diffD := rec.timed("objectbase.Compute", root, i, func() { diff = objectbase.Compute(head, res.Final) })
			facts := len(diff.Added) + len(diff.Removed)
			ls.add("objectbase.diff_ms", ms(diffD))
			ls.add("objectbase.diff_facts", float64(facts))
			ls.add("objectbase.facts_scanned_per_diff_fact", float64(head.Size())/float64(max(facts, 1)))

			encodeD := rec.timed("storage.encode", root, i, func() {
				added, removed := storage.EncodeDiff(diff)
				var payload []byte
				payload, perr = json.Marshal(repository.Entry{
					Seq: i + 1, Program: parser.FormatProgram(p), Key: "k",
					Added: added, Removed: removed, Fired: res.Fired, Strata: res.Assignment.NumStrata(),
				})
				storage.FrameJournalRecord(payload)
			})
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}
			ls.add("storage.encode_ms", ms(encodeD))
			saveD := rec.timed("storage.SaveBinaryAt", root, i, func() { perr = storage.SaveBinaryAt(io.Discard, res.Final, i+1) })
			if perr != nil {
				return nil, "", fmt.Errorf("pass D: %w", perr)
			}
			ls.add("storage.save_head_ms", ms(saveD))
			freezeD := rec.timed("objectbase.Freeze", root, i, func() { res.Final.Freeze() })
			ls.add("objectbase.freeze_ms", ms(freezeD))

			ls.add("repository.apply_ms", ms(applyD))
			ls.add("repository.self_ms", ms(applyD-evalD-diffD-encodeD-fsD))
			ls.add("repository.attributed_pct", 100*float64(evalD+diffD+encodeD+saveD+freezeD+fsD)/float64(applyD))
			bigMS = append(bigMS, ms(applyD))
			rec.end(root)

			// The same update on the small base, interleaved so that a host
			// phase hits numerator and denominator alike.
			sp, err := smallProgram(o)
			if err != nil {
				return nil, "", fmt.Errorf("pass D: %w", err)
			}
			start = time.Now()
			if _, err := small.Apply(sp, core.WithTrace()); err != nil {
				return nil, "", fmt.Errorf("pass D: apply on the small base: %w", err)
			}
			smallMS = append(smallMS, ms(time.Since(start)))
		}
	}
	st := ls.medians()
	if s := percentile(smallMS, 50); s > 0 {
		st["repository.apply_scaling_x"] = percentile(bigMS, 50) / s
	}

	head, err := repo.Head()
	if err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	var snap bytes.Buffer
	if err := storage.SaveBinaryAt(&snap, head, 0); err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	var loads, opens []float64
	for i := 0; i < repeats; i++ {
		var lerr error
		loads = append(loads, ms(rec.timed("storage.LoadBinaryAt", -1, -1, func() {
			_, _, lerr = storage.LoadBinaryAt(bytes.NewReader(snap.Bytes()))
		})))
		if lerr != nil {
			return nil, "", fmt.Errorf("pass D: %w", lerr)
		}
	}
	st["storage.load_ms"] = median(loads)
	// Recovery as a restart pays it: open the directory the script left.
	if err := repo.Close(); err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	for i := 0; i < repeats; i++ {
		var oerr error
		opens = append(opens, ms(rec.timed("repository.Open", -1, -1, func() { repo, oerr = repository.OpenFS(repoDir, fsio.OS) })))
		if oerr != nil {
			return nil, "", fmt.Errorf("pass D: reopening: %w", oerr)
		}
		if i < repeats-1 {
			repo.Close()
		}
	}
	st["repository.open_ms"] = median(opens)
	reopened, err := repo.Head()
	if err != nil {
		return nil, "", fmt.Errorf("pass D: %w", err)
	}
	return st, parser.FormatFacts(reopened, false), nil
}
