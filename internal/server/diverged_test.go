package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/storage"
)

// TestDivergedJournal: a journal record whose diff its program does not
// derive — framed and checksummed, so the repository opens it — is refused
// by every read that re-evaluates it, history and explain, with a stable
// code, while the record before it still explains.
func TestDivergedJournal(t *testing.T) {
	dir := t.TempDir() + "/repo"
	initial, err := parser.ObjectBase("phil.isa -> empl / sal -> 4000.\nbob.isa -> empl / sal -> 4200.\n", "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	repo, err := repository.Init(dir, initial)
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		"mod[bob].sal -> (S, S') <- bob.sal -> S, S' = S + 100.",
		"mod[phil].sal -> (S, S') <- phil.sal -> S, S' = S + 100.",
	} {
		p, err := parser.Program(src, "p.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repo.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	entries := repo.Log()
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	// phil's raise journaled as 4101 instead of 4100.
	entries[1].Added = storage.Facts(strings.Replace(string(entries[1].Added), "phil.sal=4100", "phil.sal=4101", 1))
	journal := storage.Snapshot{Base: initial}.Append(nil)
	for _, e := range entries {
		journal = e.AppendRecord(journal)
	}
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), journal, 0o644); err != nil {
		t.Fatal(err)
	}
	repo, err = repository.Open(dir)
	if err != nil {
		t.Fatalf("the tampered journal does not open: %v", err)
	}
	defer repo.Close()
	ts := httptest.NewServer(New(repo))
	defer ts.Close()

	for _, path := range []string{
		"/v1/t/default/history?object=phil&state=2",
		"/v1/t/default/explain?vid=mod(phil)&method=sal&state=2",
	} {
		code, body := get(t, ts.URL+path)
		if code != http.StatusInternalServerError || errCode(t, body) != CodeDiverged || !strings.Contains(body, "entry 2") {
			t.Errorf("GET %s = %d %s, want 500 %s naming entry 2", path, code, body, CodeDiverged)
		}
	}
	if code, body := get(t, ts.URL+"/v1/t/default/explain?vid=mod(bob)&method=sal&state=1"); code != http.StatusOK {
		t.Errorf("explain of the untampered entry 1 = %d %s", code, body)
	}
}
