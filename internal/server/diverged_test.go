package server

import (
	"bytes"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"verlog/internal/parser"
	"verlog/internal/repository"
	"verlog/internal/storage"
)

// TestDivergedJournal: a journal record whose digest its program does not
// derive — framed and checksummed — is refused by Open, naming its seq, and
// the file is left as it was. A resident entry whose digest or counts its
// program does not derive is refused by every read that re-evaluates it —
// history and explain of its state, and a state past it — with a stable
// code, while the entry before it still explains and the states before it
// still read.
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
		"mod[bob].sal -> (S, S') <- bob.sal -> S, S' = S + 1.",
	} {
		p, err := parser.Program(src, "p.vlg")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := repo.Apply(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "journal.jsonl")
	journal, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Entry 2's digest with its first digit changed, under a checksum that
	// holds.
	lines := bytes.SplitAfter(journal, []byte("\n"))
	second := slices.IndexFunc(lines, func(line []byte) bool { return bytes.Contains(line, []byte(`{"seq":2,`)) })
	payload, err := storage.ParseJournalLine(bytes.TrimSuffix(lines[second], []byte("\n")), second+1)
	if err != nil {
		t.Fatal(err)
	}
	at := bytes.Index(payload, []byte(`"digest":"`)) + len(`"digest":"`)
	if at < len(`"digest":"`) {
		t.Fatalf("entry 2 carries no digest: %s", payload)
	}
	forged := bytes.Clone(payload)
	const hex = "0123456789abcdef"
	forged[at] = hex[(strings.IndexByte(hex, forged[at])+1)%16]
	lines[second] = storage.FrameJournalRecord(forged)
	tampered := bytes.Join(lines, nil)
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := repository.Open(dir); !errors.Is(err, repository.ErrDiverged) || !strings.Contains(err.Error(), "entry 2") {
		t.Fatalf("Open of a journal whose entry 2 has a forged digest = %v, want ErrDiverged naming entry 2", err)
	}
	if after, _ := os.ReadFile(path); !bytes.Equal(after, tampered) {
		t.Fatalf("Open changed the journal it refused: %d bytes, were %d", len(after), len(tampered))
	}

	if err := os.WriteFile(path, journal, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		tamper func(e *repository.Entry)
	}{
		// phil's raise resident as leading to another state, or as adding
		// one fact more, as memory gone wrong would leave it.
		{"digest", func(e *repository.Entry) {
			forged := *e.Digest
			forged[1]++
			e.Digest = &forged
		}},
		{"count", func(e *repository.Entry) { e.NumAdded++ }},
	} {
		t.Run(c.name, func(t *testing.T) {
			repo, err := repository.Open(dir)
			if err != nil {
				t.Fatalf("the journal does not open: %v", err)
			}
			defer repo.Close()
			c.tamper(&repo.Log()[1])
			ts := httptest.NewServer(New(repo))
			defer ts.Close()

			for _, path := range []string{
				"/v1/t/default/history?object=phil&state=2",
				"/v1/t/default/explain?vid=mod(phil)&method=sal&state=2",
				"/v1/t/default/state?n=2",
			} {
				code, body := get(t, ts.URL+path)
				if code != http.StatusInternalServerError || errCode(t, body) != CodeDiverged || !strings.Contains(body, "entry 2") {
					t.Errorf("GET %s = %d %s, want 500 %s naming entry 2", path, code, body, CodeDiverged)
				}
			}
			for _, path := range []string{
				"/v1/t/default/explain?vid=mod(bob)&method=sal&state=1",
				"/v1/t/default/state?n=1",
			} {
				if code, body := get(t, ts.URL+path); code != http.StatusOK {
					t.Errorf("GET %s before the tampered entry = %d %s", path, code, body)
				}
			}
		})
	}
}
