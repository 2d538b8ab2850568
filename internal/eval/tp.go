package eval

import (
	"context"
	"fmt"
	"runtime/pprof"
	"strconv"
	"time"

	"verlog/internal/term"
)

// Update is a fired ground update: an element of the set T¹_P(I) of
// Section 3. For Mod, R is the old result and R2 the new one.
type Update struct {
	Kind term.UpdateKind
	V    term.GVID // the version the update is performed on (inside [...])
	Key  term.MethodKey
	R    term.OID
	R2   term.OID
}

// Target returns the version resulting from the update, Kind(V).
func (u Update) Target() term.GVID { return u.V.Push(u.Kind) }

func (u Update) String() string {
	switch u.Kind {
	case term.Mod:
		return fmt.Sprintf("mod[%s].%s -> (%s, %s)", u.V, u.Key, u.R, u.R2)
	default:
		return fmt.Sprintf("%s[%s].%s -> %s", u.Kind, u.V, u.Key, u.R)
	}
}

// compare orders updates for deterministic traces and refusals; distinct
// updates never compare equal. Argument tuples are ordered by their
// encodings — any total order does, and this one decodes nothing.
func (u Update) compare(v Update) int {
	if c := u.V.Compare(v.V); c != 0 {
		return c
	}
	if u.Kind != v.Kind {
		if u.Kind < v.Kind {
			return -1
		}
		return 1
	}
	if u.Key.Method != v.Key.Method {
		if u.Key.Method < v.Key.Method {
			return -1
		}
		return 1
	}
	if c := u.Key.Args.CompareEncoded(v.Key.Args); c != 0 {
		return c
	}
	if c := u.R.Compare(v.R); c != 0 {
		return c
	}
	return u.R2.Compare(v.R2)
}

// fireTask is one unit of step-1 matching: a rule evaluated in full
// (pos < 0) or seeded from one of its delta buckets — pos is then the index
// of the delta variant and delta its bucket.
type fireTask struct {
	ri, pos int
	delta   *bucket
}

// fireStat is the cost of step-1 tasks: when the first started, how long
// the matching took, how many complete body matches it enumerated, how many
// updates it emitted (duplicates of known updates included) and how many of
// those were new: the change in the rule's fired count across the tasks.
type fireStat struct {
	start          time.Time
	dur            time.Duration
	matched        int64
	emitted, fired int
}

// step1 runs one task, feeding every emitted update to onFire as it fires.
// When tracing (Options.Span set) the task runs under runtime/pprof labels
// (stratum, rule) so CPU profiles attribute samples to rules; the
// allocation per task is acceptable because tracing is opt-in per run.
func (e *engine) step1(si int, t fireTask, onFire func(Update) error) (fireStat, error) {
	st := fireStat{start: time.Now()}
	match := func() error {
		cr := e.compiled.rules[t.ri]
		steps := cr.steps
		if t.pos >= 0 {
			steps = cr.deltaSteps[t.pos]
		}
		if err := e.x.run(cr, steps, t.delta, &st.matched, onFire); err != nil {
			return fmt.Errorf("eval: rule %s: %w", e.labels[t.ri], err)
		}
		return nil
	}
	var err error
	if e.opts.Span != nil {
		labels := pprof.Labels("stratum", strconv.Itoa(si+1), "rule", e.labels[t.ri])
		pprof.Do(context.Background(), labels, func(context.Context) { err = match() })
	} else {
		err = match()
	}
	st.dur = time.Since(st.start)
	return st, err
}
