package lint

import (
	"strconv"
	"strings"
)

// specPath is the import path of the spec evaluator, relative to the module.
const specPath = "/internal/spec"

// Specimport keeps the spec evaluator out of the binaries. internal/spec is
// the reference the tests hold the engine against — the paper's definitions
// over a plain set of facts, quadratic and proud of it — and its worth as an
// oracle is that the engine shares no code with it and nothing that ships
// depends on it. Only _test.go files may import it.
var Specimport = &Analyzer{
	Name: "specimport",
	Doc:  "flag an import of internal/spec, the test oracle, from a non-test file",
	Run:  runSpecimport,
}

func runSpecimport(p *Pass) {
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, imp := range f.Imports {
			if path, err := strconv.Unquote(imp.Path.Value); err == nil && strings.HasSuffix(path, specPath) {
				p.Reportf(imp.Pos(), "%s is imported by a file that ships: the spec evaluator is for _test.go files only", path)
			}
		}
	}
}
