package verlog_test

import (
	"reflect"
	"testing"

	"verlog"
	"verlog/internal/objectbase"
	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/term"
)

// checkReplayLikeTracedApply is the provenance differential every shipped
// program goes through (beside checkProgramLikeSpec): committed untraced to a
// repository, as the server commits it, and then re-evaluated from the
// journal (Repository.Replay), it yields the trace — event for event, in
// order — the fired count and the result(P) of a traced apply of the same
// program on the same base, live and after a reopen. The program is put in
// the journal's canonical text first, because an unnamed rule is labelled by
// its line and the journal keeps no other text. A program the engine refuses
// never reaches a journal and has nothing to replay.
func checkReplayLikeTracedApply(t *testing.T, ob *objectbase.Base, p *term.Program) {
	t.Helper()
	p, err := parser.Program(parser.FormatProgram(p), "journal")
	if err != nil {
		t.Fatalf("the canonical text does not parse: %v", err)
	}
	want, err := verlog.Apply(ob, p, verlog.WithTrace())
	if err != nil {
		return
	}
	repo, err := repository.Init(t.TempDir()+"/repo", ob)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := repo.Apply(p); err != nil || res.Trace != nil {
		t.Fatalf("untraced apply: trace %v, error %v", res.Trace, err)
	}
	check := func(repo *repository.Repository, when string) {
		t.Helper()
		got, err := repo.Replay(repository.Newest)
		if err != nil {
			t.Fatalf("%s: Replay: %v", when, err)
		}
		if got.Fired != want.Fired || !reflect.DeepEqual(got.Trace, want.Trace) {
			t.Errorf("%s: replay fired %d, traced apply %d:\n got %v\nwant %v", when, got.Fired, want.Fired, got.Trace, want.Trace)
		}
		if !got.Result.Equal(want.Result) || !want.Result.Equal(got.Result) {
			t.Errorf("%s: result(P) of the replay:\n%sof the traced apply:\n%s", when,
				parser.FormatFacts(got.Result, true), parser.FormatFacts(want.Result, true))
		}
	}
	check(repo, "live")
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := repository.Open(repo.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	check(reopened, "reopened")
}
