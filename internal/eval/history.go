package eval

import (
	"fmt"
	"sort"
	"strings"

	"verlog/internal/objectbase"
	"verlog/internal/term"
)

// HistoryStep is one stage of an object's update process: a version, its
// state, and what changed relative to the previous version. Section 2.2 of
// the paper reads VIDs temporally — "each object-version can be considered
// as a single stage, corresponding to a certain time-step, of the entire
// process of updating the object"; History materializes that reading.
type HistoryStep struct {
	// V is the version identity of this stage (path length 0 = the initial
	// object).
	V term.GVID
	// Kind is the update type that produced this stage (0 for the initial
	// version).
	Kind term.UpdateKind
	// State holds the method applications of the version, sorted, with the
	// system method exists omitted.
	State []term.Fact
	// Added and Removed are the method applications gained and lost
	// relative to the previous stage (nil for the initial version).
	Added   []term.Fact
	Removed []term.Fact
}

// String renders the step compactly.
func (h HistoryStep) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", h.V)
	if len(h.Added)+len(h.Removed) == 0 && h.V.Path.Len() > 0 {
		b.WriteString(" (unchanged)")
	}
	for _, f := range h.Removed {
		fmt.Fprintf(&b, " -%s%s->%s", f.Method, f.Args, f.Result)
	}
	for _, f := range h.Added {
		fmt.Fprintf(&b, " +%s%s->%s", f.Method, f.Args, f.Result)
	}
	return b.String()
}

// History reconstructs the update history of object o from a fixpoint base
// (Result.Result): its versions in temporal order with per-step diffs.
// Version-linear results — everything the engine produces — yield a
// strictly deepening chain; stages the program skipped (e.g. del(mod(o))
// derived directly from o with no mod(o) version) simply do not appear.
func History(result *objectbase.Base, o term.OID) []HistoryStep {
	var steps []HistoryStep
	var prev map[appKey]term.Fact
	for _, v := range result.VersionsOf(o) { // shallow to deep
		state := stateFacts(result, v)
		cur := make(map[appKey]term.Fact, len(state))
		for _, f := range state {
			cur[appKey{f.Method, f.Args, f.Result}] = f
		}
		step := HistoryStep{V: v, Kind: v.Path.Outer(), State: state}
		if prev != nil {
			for k, f := range cur {
				if _, ok := prev[k]; !ok {
					step.Added = append(step.Added, f)
				}
			}
			for k, f := range prev {
				if _, ok := cur[k]; !ok {
					step.Removed = append(step.Removed, f)
				}
			}
			sortFactSlice(step.Added)
			sortFactSlice(step.Removed)
		}
		steps = append(steps, step)
		prev = cur
	}
	return steps
}

type appKey struct {
	method string
	args   term.Args
	result term.OID
}

func stateFacts(b *objectbase.Base, v term.GVID) []term.Fact {
	var out []term.Fact
	for f := range b.FactsOf(v) {
		if !f.IsExists() {
			out = append(out, f)
		}
	}
	sortFactSlice(out)
	return out
}

func sortFactSlice(fs []term.Fact) {
	sort.Slice(fs, func(i, j int) bool { return fs[i].Compare(fs[j]) < 0 })
}
