package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"verlog/internal/replication"
	"verlog/internal/repository"
	"verlog/internal/tenant"
)

// The history and explain routes answer from a re-evaluation of the journal
// (repository.Replay), not from anything an apply leaves behind. The files
// under testdata/provenance are the responses of the last version that kept
// the traced result of the last apply in the tenant, for enterpriseUpdate on
// the test base: every test here holds the replayed answers to those bytes,
// on a node that has nothing but the journal.

// provenanceRequests are the requests behind the golden files, by file name.
var provenanceRequests = []struct{ file, method, path, body string }{
	{"history-bob.json", "GET", "/history?object=bob", ""},
	{"history-phil.json", "GET", "/history?object=phil", ""},
	{"explain-facts.json", "POST", "/explain", "ins(mod(phil)).isa -> hpe. ins(mod(phil)).pos -> mgr. mod(phil).sal -> 4600. phil.sal -> 4000. nobody.sal -> 1."},
	{"explain-vid-sal.json", "GET", "/explain?vid=ins(mod(phil))&method=sal", ""},
	{"explain-vid-isa.json", "GET", "/explain?vid=ins(mod(phil))&method=isa", ""},
}

// withState adds &state= (or ?state=) to a request path; "" adds nothing.
func withState(path, state string) string {
	if state == "" {
		return path
	}
	sep := "?"
	if strings.Contains(path, "?") {
		sep = "&"
	}
	return path + sep + "state=" + state
}

// provenanceAnswers sends the five requests to prefix (a /v1/t/{tenant}
// URL) about state ("" = the newest) and returns the bodies.
func provenanceAnswers(t *testing.T, prefix, state string) []string {
	t.Helper()
	out := make([]string, len(provenanceRequests))
	for i, rq := range provenanceRequests {
		url := prefix + withState(rq.path, state)
		code := 0
		if rq.method == "GET" {
			code, out[i] = get(t, url)
		} else {
			code, out[i] = post(t, url, rq.body)
		}
		if code != 200 {
			t.Fatalf("%s %s: %d %s", rq.method, url, code, out[i])
		}
	}
	return out
}

// checkProvenance holds the answers about state at prefix to the golden files.
func checkProvenance(t *testing.T, prefix, state string) {
	t.Helper()
	for i, got := range provenanceAnswers(t, prefix, state) {
		want, err := os.ReadFile(filepath.Join("testdata", "provenance", provenanceRequests[i].file))
		if err != nil {
			t.Fatal(err)
		}
		if got != string(want) {
			t.Errorf("%s (state %q) at %s:\n got %s\nwant %s", provenanceRequests[i].file, state, prefix, got, want)
		}
	}
}

// seedTenant is the test base as a program, for tenants that start empty.
const seedTenant = `
ins[phil].isa -> empl. ins[phil].pos -> mgr. ins[phil].sal -> 4000.
ins[bob].isa -> empl. ins[bob].boss -> phil. ins[bob].sal -> 4200.
`

const raiseAll = `raise: mod[E].sal -> (S, S') <- E.isa -> empl, E.sal -> S, S' = S + 7.`

// TestProvenanceNewestState: the default answers are, byte for byte, what
// the stored trace of the last apply used to give.
func TestProvenanceNewestState(t *testing.T) {
	ts, _ := newTestServer(t)
	if code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	checkProvenance(t, ts.URL+"/v1/t/default", "")
	checkProvenance(t, ts.URL+"/v1/t/default", "1")
}

// TestProvenanceAfterRestart: a process that never ran the apply answers
// from the journal it opened.
func TestProvenanceAfterRestart(t *testing.T) {
	ts, repo := newTestServer(t)
	if code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	ts.Close()
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := repository.Open(repo.Dir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	ts2 := httptest.NewServer(New(reopened))
	defer ts2.Close()
	checkProvenance(t, ts2.URL+"/v1/t/default", "")
	// The next apply moves the default on; the restarted state stays.
	if code, body := post(t, ts2.URL+"/v1/t/default/apply", raiseAll); code != 200 {
		t.Fatalf("apply after restart: %d %s", code, body)
	}
	checkProvenance(t, ts2.URL+"/v1/t/default", "1")
}

// TestProvenanceAfterEviction: a tenant evicted from residency and reopened
// by the request itself answers as before.
func TestProvenanceAfterEviction(t *testing.T) {
	// The pinned default tenant counts toward the cap: one other fits.
	ts, mgr := newTenantServer(t, []tenant.Option{tenant.WithMaxOpen(2)})
	for _, src := range []string{seedTenant, enterpriseUpdate} {
		if code, body := post(t, ts.URL+"/v1/t/acme/apply", src); code != 200 {
			t.Fatalf("apply: %d %s", code, body)
		}
	}
	checkProvenance(t, ts.URL+"/v1/t/acme", "")
	if code, body := post(t, ts.URL+"/v1/t/other/apply", seedTenant); code != 200 {
		t.Fatalf("apply to the evicting tenant: %d %s", code, body)
	}
	if _, _, evictions, _ := mgr.Stats(); evictions != 1 {
		t.Fatalf("evictions = %d, want acme evicted", evictions)
	}
	checkProvenance(t, ts.URL+"/v1/t/acme", "")
	checkProvenance(t, ts.URL+"/v1/t/acme", "2")
}

// TestProvenanceOnFollower: a follower never evaluates what it replicates;
// it explains it all the same.
func TestProvenanceOnFollower(t *testing.T) {
	_, prepo := newTestServer(t) // for the repository; the primary serves it below
	pnode := replication.NewNode(prepo, replication.Config{FollowerTTL: time.Hour})
	psrv := httptest.NewServer(New(prepo, WithReplication(pnode)))
	defer psrv.Close()

	initial, _ := prepo.At(0)
	frepo, err := repository.Init(t.TempDir()+"/follower", initial)
	if err != nil {
		t.Fatalf("Init follower: %v", err)
	}
	fnode := replication.NewNode(frepo, replication.Config{PrimaryURL: psrv.URL, PollWait: 50 * time.Millisecond})
	fsrv := httptest.NewServer(New(frepo, WithReplication(fnode)))
	fnode.Start()
	defer func() { fnode.Stop(); fsrv.Close() }()

	for _, src := range []string{enterpriseUpdate, raiseAll} {
		if code, body := post(t, psrv.URL+"/v1/t/default/apply", src); code != 200 {
			t.Fatalf("apply on the primary: %d %s", code, body)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, seq := frepo.Snapshot(); seq == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the follower never reached seq 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if code, body := post(t, fsrv.URL+"/v1/t/default/apply", raiseAll); code != 403 {
		t.Fatalf("the follower accepted a write: %d %s", code, body)
	}
	checkProvenance(t, fsrv.URL+"/v1/t/default", "1")
	// Both nodes say the same about the newest state, too.
	for _, path := range []string{"/v1/t/default/history?object=phil", "/v1/t/default/explain?vid=mod(phil)&method=sal"} {
		pcode, onPrimary := get(t, psrv.URL+path)
		fcode, onFollower := get(t, fsrv.URL+path)
		if pcode != 200 || fcode != 200 || onPrimary != onFollower || !strings.Contains(onFollower, "4607") {
			t.Errorf("%s: primary %d %s\nfollower %d %s", path, pcode, onPrimary, fcode, onFollower)
		}
	}
}

// TestProvenanceOlderState: ?state=k reaches under later applies, and the
// default follows the journal.
func TestProvenanceOlderState(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, src := range []string{enterpriseUpdate, raiseAll, raiseAll} {
		if code, body := post(t, ts.URL+"/v1/t/default/apply", src); code != 200 {
			t.Fatalf("apply: %d %s", code, body)
		}
	}
	checkProvenance(t, ts.URL+"/v1/t/default", "1")
	// bob left in state 1; states 2 and 3 raise phil from 4600.
	for state, want := range map[string]string{"2": "mod(phil).sal -> 4607", "3": "mod(phil).sal -> 4614", "": "mod(phil).sal -> 4614"} {
		code, body := get(t, ts.URL+withState("/v1/t/default/history?object=phil", state))
		if code != 200 || !strings.Contains(body, want) || strings.Contains(body, "ins(mod(phil))") {
			t.Errorf("history of phil in state %q: %d %s, want %s", state, code, body, want)
		}
		code, body = get(t, ts.URL+withState("/v1/t/default/explain?vid=mod(phil)&method=sal", state))
		if code != 200 || !strings.Contains(body, want) || !strings.Contains(body, `"rule":"raise"`) {
			t.Errorf("explain mod(phil).sal in state %q: %d %s, want %s", state, code, body, want)
		}
	}
	// Asking twice about one state is one evaluation: the same bytes.
	if a, b := provenanceAnswers(t, ts.URL+"/v1/t/default", "1"), provenanceAnswers(t, ts.URL+"/v1/t/default", "1"); strings.Join(a, "") != strings.Join(b, "") {
		t.Errorf("two rounds about state 1 differ")
	}
}

// TestProvenanceStateParam: a state without a journaled program is 404 on
// all three routes — 0 is the snapshot, nothing led to it — and a malformed
// one 400, before and after there is anything to explain.
func TestProvenanceStateParam(t *testing.T) {
	ts, _ := newTestServer(t)
	check := func(state string, wantCode int, wantErr string) {
		t.Helper()
		for _, rq := range provenanceRequests {
			url := ts.URL + "/v1/t/default" + withState(rq.path, state)
			code, body := 0, ""
			if rq.method == "GET" {
				code, body = get(t, url)
			} else {
				code, body = post(t, url, rq.body)
			}
			if code != wantCode || errCode(t, body) != wantErr {
				t.Errorf("%s %s = %d %s, want %d %s", rq.method, url, code, body, wantCode, wantErr)
			}
		}
	}
	check("", 404, CodeNotFound)
	check("1", 404, CodeNotFound)
	check("abc", 400, CodeBadRequest)
	if code, body := post(t, ts.URL+"/v1/t/default/apply", enterpriseUpdate); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	for _, state := range []string{"0", "2", "-1", "99999999"} {
		check(state, 404, CodeNotFound)
	}
	for _, state := range []string{"abc", "1.5", "1x"} {
		check(state, 400, CodeBadRequest)
	}
	checkProvenance(t, ts.URL+"/v1/t/default", "1")
}

// TestExplainVersionIDs: the version is found by reading the id back, for
// every sort of object identity, and only an id spelled as the server
// spells it finds anything.
func TestExplainVersionIDs(t *testing.T) {
	ts, _ := newTestServer(t)
	if code, body := post(t, ts.URL+"/v1/t/default/apply", `
ins[7].size -> 1. ins[2.5].size -> 2. ins["a(b) c"].size -> 3. ins[plain].size -> 4.
`); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	for _, vid := range []string{`ins(7)`, `ins(2.5)`, `ins("a(b) c")`, `ins(plain)`} {
		code, body := get(t, ts.URL+"/v1/t/default/explain?method=size&vid="+strings.ReplaceAll(vid, " ", "%20"))
		if code != 200 || !strings.Contains(body, `"provenance":"update"`) {
			t.Errorf("explain %s: %d %s", vid, code, body)
		}
	}
	for _, vid := range []string{`ins( 7 )`, `ins(07)`, `ins(2.50)`, `ins(plain`, `ins()`, `ins(ins(plain))`, `INS(plain)`, `)`} {
		code, body := get(t, ts.URL+"/v1/t/default/explain?method=size&vid="+strings.ReplaceAll(vid, " ", "%20"))
		if code != 404 || errCode(t, body) != CodeNotFound {
			t.Errorf("explain %s: %d %s, want 404 not_found", vid, code, body)
		}
	}
}

// TestExplainBesideApplies hammers history and explain beside a stream of
// applies (run it under -race). Apply k raises phil from 4000+k-1 to 4000+k,
// so an answer is consistent with a single state exactly when its parts
// name one k — and, asked about a given state, that state's.
func TestExplainBesideApplies(t *testing.T) {
	ts, _ := newTestServer(t)
	const applies = 40
	bump := `bump: mod[phil].sal -> (S, S') <- phil.sal -> S, S' = S + 1.`
	if code, body := post(t, ts.URL+"/v1/t/default/apply", bump); code != 200 {
		t.Fatalf("apply: %d %s", code, body)
	}
	// stateOf reads the k an answer speaks of, checking its parts agree.
	stateOf := func(history, chain string) (int, error) {
		var h struct {
			Steps []struct {
				Version string   `json:"version"`
				State   []string `json:"state"`
			} `json:"steps"`
		}
		if err := json.Unmarshal([]byte(history), &h); err != nil || len(h.Steps) != 2 {
			return 0, fmt.Errorf("history %s (%v)", history, err)
		}
		sal := func(facts []string) int {
			for _, f := range facts {
				if _, v, ok := strings.Cut(f, ".sal -> "); ok {
					n, _ := strconv.Atoi(v)
					return n
				}
			}
			return -1
		}
		before, after := sal(h.Steps[0].State), sal(h.Steps[1].State)
		k := after - 4000
		if after != before+1 {
			return 0, fmt.Errorf("history mixes states: %s", history)
		}
		if want := fmt.Sprintf(`"update":"mod[phil].sal -> (%d, %d)"`, before, after); chain != "" && !strings.Contains(chain, want) {
			return 0, fmt.Errorf("chain %s, want %s", chain, want)
		}
		return k, nil
	}
	fetch := func(path string) string { // get, for goroutines that may not t.Fatal
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			return err.Error()
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			newest := 1
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// The newest state only moves forward ...
				k, err := stateOf(fetch("/v1/t/default/history?object=phil"), "")
				if err != nil || k < newest {
					t.Errorf("the newest state read %d after %d (%v)", k, newest, err)
					return
				}
				newest = k
				// ... and a pinned one answers for itself on both routes.
				state := strconv.Itoa(1 + (i*7+g)%newest)
				k, err = stateOf(fetch(withState("/v1/t/default/history?object=phil", state)),
					fetch(withState("/v1/t/default/explain?vid=mod(phil)&method=sal", state)))
				if err != nil || strconv.Itoa(k) != state {
					t.Errorf("asked about state %s, answered about %d (%v)", state, k, err)
					return
				}
			}
		}(g)
	}
	for i := 2; i <= applies; i++ {
		if code, body := post(t, ts.URL+"/v1/t/default/apply", bump); code != 200 {
			t.Errorf("apply %d: %d %s", i, code, body)
			break
		}
	}
	close(stop)
	wg.Wait()
	_, history := get(t, ts.URL+"/v1/t/default/history?object=phil")
	if k, err := stateOf(history, ""); err != nil || k != applies {
		t.Errorf("after %d applies the newest state reads %d (%v)", applies, k, err)
	}
}
