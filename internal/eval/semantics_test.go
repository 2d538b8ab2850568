package eval

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// conformance maps each Semantics to the hash of the outputs that pin it:
// the golden programs' results, the paper benchmarks' outputs and the
// provenance goldens (conformanceDirs).
var conformance = map[int]string{
	1: "8c64c58049c95da2a739866f5a5808da1298e9c53a66ae743b85ef1527b927c1",
}

// conformanceDirs are the directories, from the module root, whose files
// hold the evaluator's pinned outputs.
var conformanceDirs = []string{"testdata/golden", "internal/bench/testdata", "internal/server/testdata/provenance"}

// TestSemanticsConformance: the bytes of every file under conformanceDirs,
// in sorted path order, hash to the value recorded for Semantics. A change
// that moves an output moves the hash; it must bump Semantics, since a
// journal written under the old outputs no longer re-derives its states.
func TestSemanticsConformance(t *testing.T) {
	h := sha256.New()
	var paths []string
	for _, dir := range conformanceDirs {
		err := filepath.WalkDir(filepath.Join("..", "..", dir), func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				paths = append(paths, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	slices.Sort(paths)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(filepath.Join("..", ".."), path)
		h.Write([]byte(filepath.ToSlash(rel) + "\x00"))
		h.Write(data)
		h.Write([]byte{0})
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want := conformance[Semantics]; got != want {
		t.Errorf("the %d conformance files hash to %s; Semantics %d records %q.\n"+
			"An evaluator output moved: bump eval.Semantics and record the new hash under it in conformance.", len(paths), got, Semantics, want)
	}
}
