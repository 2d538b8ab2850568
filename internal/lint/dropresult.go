package lint

import (
	"go/ast"
	"strings"
)

// repositoryPath is the import path, relative to the module, of the one
// package that may evaluate without result(P).
const repositoryPath = "/internal/repository"

// Dropresult keeps core.WithDropResult an internal switch of the commit.
// The option makes an evaluation build its fixpoint in working memory the
// next one reuses and return no result(P); the repository's commit needs
// only the updated base and the changes, so it sets it, and every other
// caller — the verlog package, the CLI, the repl, Replay behind history and
// explain — reads result(P). Outside the repository the option is built in
// _test.go files only: it must not grow into a knob of the public API.
var Dropresult = &Analyzer{
	Name: "dropresult",
	Doc:  "flag core.WithDropResult built outside internal/repository and _test.go files",
	Run:  runDropresult,
}

func runDropresult(p *Pass) {
	if strings.HasSuffix(p.Path, repositoryPath) {
		return
	}
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return n.Name.Name != "WithDropResult" // not its definition
			case *ast.Ident: // bare, or the Sel of core.WithDropResult
				if n.Name == "WithDropResult" {
					p.Reportf(n.Pos(), "WithDropResult outside internal/repository: dropping result(P) is the commit's switch, not a caller's option")
				}
			}
			return true
		})
	}
}
