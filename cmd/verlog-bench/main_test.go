package main

import (
	"strings"
	"testing"
)

func TestList(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("code = %d, stderr = %s", code, errOut.String())
	}
	for _, want := range []string{"E1", "E2", "E9", "Figure 2"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("list missing %q:\n%s", want, out.String())
		}
	}
}

func TestUnknownExperiment(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-run", "E99"}, &out, &errOut); code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "unknown experiment") {
		t.Errorf("stderr: %s", errOut.String())
	}
}

func TestRunSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real experiment")
	}
	var out, errOut strings.Builder
	if code := run([]string{"-run", "E7"}, &out, &errOut); code != 0 {
		t.Fatalf("code = %d, stderr = %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "version-linearity") || !strings.Contains(out.String(), "PASS") {
		t.Errorf("E7 output:\n%s", out.String())
	}
}

func TestBadFlag(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-bogus"}, &out, &errOut); code != 2 {
		t.Errorf("code = %d, want 2", code)
	}
}
