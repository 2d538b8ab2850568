package eval

import (
	"testing"

	"verlog/internal/objectbase"
	"verlog/internal/term"
	"verlog/internal/workload"
)

// TestFinalAdoptsTheEnginesCopy: the copy step 2 of T_P makes of an object's
// state for mod(e) is the only one an apply makes of it — ob' takes the
// deepest version's state by pointer when it is in final form — and the
// input head keeps the state it had.
func TestFinalAdoptsTheEnginesCopy(t *testing.T) {
	head := workload.EnterpriseSpec{Employees: 200, Seed: 21}.ObjectBase().Freeze()
	p := mustProgram(t, workload.BulkRaiseProgram)
	before := map[term.GVID]*objectbase.State{}
	sal := map[term.GVID]term.OID{}
	for _, v := range head.Versions() {
		before[v] = head.StateOf(v)
		for r := range head.Results(v, term.MethodKey{Method: "sal"}) {
			sal[v] = r
		}
	}
	res := mustRun(t, head, p, Options{Trace: true})
	if len(res.Changes) != 200 {
		t.Fatalf("%d changes, want 200", len(res.Changes))
	}
	for v, old := range before {
		final, version := res.Final.StateOf(v), res.Result.StateOf(v.Push(term.Mod))
		if final == nil || final != version {
			t.Fatalf("%s: ob' holds %p, result(P) holds %p for its mod version; want one state", v, final, version)
		}
		if final == old || head.StateOf(v) != old {
			t.Fatalf("%s: the input head's state was replaced or handed on", v)
		}
		if !old.Has(term.MethodKey{Method: "sal"}, sal[v]) || final.Has(term.MethodKey{Method: "sal"}, sal[v]) {
			t.Fatalf("%s: the old salary %s is gone from the input or still in ob'", v, sal[v])
		}
	}
	if want := Finalize(res.Result); !res.Final.Equal(want) {
		t.Fatalf("ob' differs from Finalize(result(P))")
	}
}

// TestFinalCopiesWhatIsNotInFinalForm: a deepest version that carries an
// exists application besides the canonical one — only a hand-written input
// has such an object — is not adopted; its state goes through CloneFinal.
func TestFinalCopiesWhatIsNotInFinalForm(t *testing.T) {
	ob := mustBase(t, `o.exists -> o. o.exists -> twin. o.sal -> 10. q.sal -> 10.`)
	res := mustRun(t, ob, mustProgram(t, `r: mod[X].sal -> (S, S') <- X.sal -> S, S' = S + 1.`), Options{})
	exists := term.MethodKey{Method: term.ExistsMethod}
	o, q := term.GVID{Object: term.Sym("o")}, term.GVID{Object: term.Sym("q")}
	final, version := res.Final.StateOf(o), res.Result.StateOf(o.Push(term.Mod))
	if final == nil || version == nil || final == version {
		t.Fatalf("o: ob' holds %p and result(P) %p for mod(o); want a copy", final, version)
	}
	if !version.Has(exists, term.Sym("twin")) || final.Has(exists, term.Sym("twin")) || !final.Has(exists, o.Object) {
		t.Errorf("o: the foreign exists must stay in result(P) and not reach ob'")
	}
	if !final.Has(term.MethodKey{Method: "sal"}, term.Int(11)) || final.Size() != 2 {
		t.Errorf("o: ob' holds %d applications, want exists -> o and sal -> 11", final.Size())
	}
	if res.Final.StateOf(q) != res.Result.StateOf(q.Push(term.Mod)) {
		t.Errorf("q, in final form, was copied instead of adopted")
	}
	if want := Finalize(res.Result); !res.Final.Equal(want) {
		t.Fatalf("ob' differs from Finalize(result(P))")
	}
}
