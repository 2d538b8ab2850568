package server

import (
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"testing"

	"verlog/internal/fsio"
	"verlog/internal/parser"
	"verlog/internal/repository"
)

// brokenJournalFS is the real filesystem on which, once broken is set,
// every journal fsync and every truncate fails.
type brokenJournalFS struct {
	fsio.FS
	broken atomic.Bool
}

func (f *brokenJournalFS) Append(name string) (fsio.File, error) {
	file, err := f.FS.Append(name)
	if err != nil || !f.broken.Load() || filepath.Base(name) != "journal.jsonl" {
		return file, err
	}
	return failingSync{file}, nil
}

func (f *brokenJournalFS) Truncate(name string, size int64) error {
	if f.broken.Load() {
		return syscall.EIO
	}
	return f.FS.Truncate(name, size)
}

type failingSync struct{ fsio.File }

func (failingSync) Sync() error { return syscall.EIO }

// A tenant whose failed journal append cannot be cut back answers every
// write with a stable 503 journal_unwritable and keeps serving reads.
func TestJournalUnwritableIs503(t *testing.T) {
	initial, err := parser.ObjectBase("bob.isa -> empl / sal -> 4200.\n", "init.vlg")
	if err != nil {
		t.Fatal(err)
	}
	fs := &brokenJournalFS{FS: fsio.OS}
	repo, err := repository.InitFS(t.TempDir()+"/repo", initial, fs)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(repo))
	defer ts.Close()
	fs.broken.Store(true)
	raise := "r: mod[bob].sal -> (S, S') <- bob.sal -> S, S' = S + 100."
	for i := 0; i < 2; i++ {
		if code, body := post(t, ts.URL+"/v1/t/default/apply", raise); code != http.StatusServiceUnavailable || errCode(t, body) != CodeJournalUnwritable {
			t.Errorf("apply %d = %d %s, want 503 %s", i+1, code, body, CodeJournalUnwritable)
		}
	}
	if code, body := post(t, ts.URL+"/v1/t/default/query", "bob.sal -> S."); code != http.StatusOK || body != `{"rows":[{"S":"4200"}]}`+"\n" {
		t.Errorf("query = %d %s, want the head before the failed apply", code, body)
	}
}
