package verlog_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"
)

// maxTrackedFile is the largest file the repository tracks outside a
// testdata directory: sources and documents are text and stay well under it.
const maxTrackedFile = 1 << 20

// TestTrackedFilesAreSources: the repository tracks sources, not what
// building them leaves behind. Every tracked file outside a testdata
// directory is UTF-8 text (no NUL byte) of at most 1 MiB; a compiled
// binary committed by mistake fails on both counts.
func TestTrackedFilesAreSources(t *testing.T) {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Skipf("no git work tree to list: %v", err)
	}
	for _, name := range strings.Split(strings.TrimSuffix(string(out), "\x00"), "\x00") {
		if name == "" || slices.Contains(strings.Split(filepath.ToSlash(name), "/"), "testdata") {
			continue
		}
		b, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue // deleted in the work tree, not yet in the index
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		switch {
		case len(b) > maxTrackedFile:
			t.Errorf("%s is tracked and holds %d bytes, over %d: is it a build output?", name, len(b), maxTrackedFile)
		case !utf8.Valid(b) || bytes.IndexByte(b, 0) >= 0:
			t.Errorf("%s is tracked and is not UTF-8 text: is it a build output?", name)
		}
	}
}
