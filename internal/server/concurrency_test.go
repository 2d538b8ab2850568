package server

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestServerConcurrentClients hammers the server with parallel applies and
// queries. Applies are serialized by the server's mutex, so every one of
// the n raises must land exactly once: the final salary is the initial
// value plus 10*n. Run with -race to exercise the locking.
func TestServerConcurrentClients(t *testing.T) {
	ts, repo := newTestServer(t)
	const appliers, queriers, rounds = 4, 4, 5

	raise := `r: mod[E].sal -> (S, S') <- E.isa -> empl / pos -> mgr, E.sal -> S, S' = S + 10.`

	var wg sync.WaitGroup
	errs := make(chan error, appliers*rounds+queriers*rounds)
	for a := 0; a < appliers; a++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if code, body := post(t, ts.URL+"/v1/t/default/apply", raise); code != 200 {
					errs <- fmt.Errorf("apply: %d %s", code, body)
					return
				}
			}
		}()
	}
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if code, body := post(t, ts.URL+"/v1/t/default/query", `phil.sal -> S.`); code != 200 {
					errs <- fmt.Errorf("query: %d %s", code, body)
					return
				}
				if code, _ := get(t, ts.URL+"/v1/t/default/log"); code != 200 {
					errs <- fmt.Errorf("log: %d", code)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Every apply committed exactly once.
	if n := repo.Len(); n != appliers*rounds {
		t.Fatalf("journal length = %d, want %d", n, appliers*rounds)
	}
	code, body := get(t, ts.URL+"/v1/t/default/head")
	want := fmt.Sprintf("phil.sal -> %d.", 4000+10*appliers*rounds)
	if code != 200 || !strings.Contains(body, want) {
		t.Errorf("head missing %q:\n%s", want, body)
	}
}
