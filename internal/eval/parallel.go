package eval

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// fireTask is one unit of step-1 matching: a rule, optionally restricted to
// a delta position (-1 for a full evaluation).
type fireTask struct {
	ri  int
	pos int
}

// fireStat is the cost of one step-1 task: when it started, how long the
// matching took, and how many complete body matches it enumerated.
type fireStat struct {
	start   time.Time
	dur     time.Duration
	matched int64
}

// stepWorker is one goroutine's matching state: the interpreter's matcher
// or the compiled-plan executor, whichever path the run uses.
type stepWorker struct {
	m *matcher
	x *executor
}

// step1Compiled is step1Rule for the compiled path: it runs rule ri's full
// plan (vi < 0) or its vi-th delta variant against the variant's delta
// bucket.
func (e *engine) step1Compiled(x *executor, ri, vi int, matched *int64, onFire func(Update) error) error {
	cr := e.compiled.rules[ri]
	steps := cr.steps
	var delta []term.Fact
	if vi >= 0 {
		steps = cr.deltaSteps[vi]
		delta = e.buckets[cr.deltaKeys[vi]]
	}
	if err := x.run(cr, steps, delta, matched, onFire); err != nil {
		return fmt.Errorf("eval: rule %s: %w", e.labels[ri], err)
	}
	return nil
}

// collectFirings runs step 1 for every task and returns the fired updates
// and cost stats per task, in task order. Matching only reads the base, so
// tasks run concurrently when Options.Parallelism allows; results are
// merged in task order afterwards, keeping evaluation deterministic. When
// tracing (Options.Span set), each task runs under runtime/pprof labels
// (stratum, rule) so CPU profiles attribute samples to rules.
//
// When direct is non-nil (sequential runs only), each task's updates are
// fed straight into direct(ti) as they fire and no result buffers are
// built; the returned results slice is nil. This skips a full buffer-and-
// copy pass on the hot path while preserving task-order determinism,
// because a sequential run fires tasks in exactly merge order anyway.
func (e *engine) collectFirings(si int, tasks []fireTask, delta []term.Fact, direct func(ti int) func(Update)) ([][]Update, []fireStat, error) {
	var results [][]Update
	if direct == nil {
		results = make([][]Update, len(tasks))
	}
	stats := make([]fireStat, len(tasks))
	// Matchers and executors carry per-goroutine scratch state (candidate
	// buffers, frames), so each worker matches through its own; the
	// sequential path reuses the engine's.
	match := func(w *stepWorker, ti int) error {
		t := tasks[ti]
		stats[ti].start = time.Now()
		var sink func(u Update) error
		if direct != nil {
			ds := direct(ti)
			sink = func(u Update) error {
				ds(u)
				return nil
			}
		} else {
			if e.compiled != nil && t.pos < 0 {
				// Presize the result buffer from the plan's first-generator
				// estimate: full evaluations of scan-shaped rules emit on the
				// order of the driving literal's population, and reserving it
				// up front avoids the append-grow copies on large runs.
				cr := e.compiled.rules[t.ri]
				for si := range cr.steps {
					if est := cr.steps[si].estRows; est > 0 {
						if est > 1<<16 {
							est = 1 << 16
						}
						results[ti] = make([]Update, 0, est)
						break
					}
				}
			}
			sink = func(u Update) error {
				results[ti] = append(results[ti], u)
				return nil
			}
		}
		var err error
		if e.compiled != nil {
			err = e.step1Compiled(w.x, t.ri, t.pos, &stats[ti].matched, sink)
		} else {
			err = e.step1Rule(w.m, t.ri, t.pos, delta, &stats[ti].matched, sink)
		}
		stats[ti].dur = time.Since(stats[ti].start)
		return err
	}
	runTask := match
	if e.opts.Span != nil {
		// Label the goroutine for the duration of the task; the allocation
		// per task is acceptable because tracing is opt-in per run.
		stratum := strconv.Itoa(si + 1)
		runTask = func(w *stepWorker, ti int) (err error) {
			labels := pprof.Labels("stratum", stratum, "rule", e.labels[tasks[ti].ri])
			pprof.Do(context.Background(), labels, func(context.Context) {
				err = match(w, ti)
			})
			return err
		}
	}

	workers := e.opts.Parallelism
	if direct != nil {
		// A direct sink mutates shared accumulator state; the caller only
		// passes one on sequential runs, and this pins that invariant.
		workers = 1
	}
	if workers < 2 || len(tasks) < 2 {
		w := &stepWorker{m: e.m, x: e.x}
		for ti := range tasks {
			if err := runTask(w, ti); err != nil {
				return nil, nil, err
			}
		}
		return results, stats, nil
	}
	if workers > len(tasks) {
		workers = len(tasks)
	}
	// Workers scan the base concurrently; a deferred VID index must
	// materialize now, while this goroutine is still the only one running.
	e.base.EnsureVIDIndex()
	// Buffer and close the queue up front so early-exiting workers can
	// never deadlock the send side.
	work := make(chan int, len(tasks))
	for ti := range tasks {
		work <- ti
	}
	close(work)
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sw := &stepWorker{}
			if e.compiled != nil {
				sw.x = newExecutor(e.base)
			} else {
				sw.m = newMatcher(e.base)
			}
			for ti := range work {
				if err := runTask(sw, ti); err != nil {
					select {
					case errs <- err:
					default:
					}
					return
				}
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-errs:
		return nil, nil, err
	default:
		return results, stats, nil
	}
}

// computeStates computes the new state for every target, in parallel when
// configured. computeState only reads the base; mutation (SetState)
// happens sequentially in the caller.
func (e *engine) computeStates(targets []*targetUpdates) []*objectbase.State {
	states := make([]*objectbase.State, len(targets))
	workers := e.opts.Parallelism
	if workers < 2 || len(targets) < 2 {
		for i, tu := range targets {
			states[i] = e.computeState(tu.w, tu.ups, &e.arena)
		}
		return states
	}
	if workers > len(targets) {
		workers = len(targets)
	}
	work := make(chan int, len(targets))
	for i := range targets {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Arenas are single-goroutine; each worker clones from its own.
			var a objectbase.StateArena
			for i := range work {
				states[i] = e.computeState(targets[i].w, targets[i].ups, &a)
			}
		}()
	}
	wg.Wait()
	return states
}
