// Package lint is a small go/analysis-style framework for enforcing this
// codebase's own invariants — the ones the type system cannot express and
// code review keeps re-litigating:
//
//   - frozenmutate: no mutation of a Freeze()d base outside objectbase
//   - lockorder: the repository's locks nest as applyMu -> diskMu ->
//     commitMu, never the other way round, and nothing is called under a
//     leaf lock
//   - boundedlabels: tenant-labeled metrics go through obs.BoundedLabels
//   - commitclock: no wall-clock reads inside the group-commit critical
//     section (the journal append+fsync path is timed outside commitMu)
//   - specimport: internal/spec, the oracle the tests hold the engine
//     against, is imported by _test.go files only
//   - dropresult: core.WithDropResult, the commit's switch to build no
//     result(P), is built in internal/repository and _test.go files only
//
// The framework is deliberately stdlib-only (go/ast, go/parser, go/token):
// the analyzers are syntactic, which keeps them dependency-free and fast,
// at the price of being intra-function heuristics rather than
// whole-program proofs. Each analyzer errs toward silence: a finding is
// always a real pattern worth a look, absence of findings is not a proof.
//
// cmd/verlog-lint wires the analyzers into a multichecker run by
// `make lint` and CI.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Analyzer is one named invariant check.
type Analyzer struct {
	// Name identifies the analyzer in findings and -run selections.
	Name string
	// Doc is a one-paragraph description of the invariant.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// Pass is the per-(analyzer, package) unit of work.
type Pass struct {
	// Fset positions every node of Files.
	Fset *token.FileSet
	// Files are the package's parsed sources, test files included.
	Files []*ast.File
	// Path is the package's import path (module path + directory).
	Path string

	analyzer *Analyzer
	findings *[]Finding
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Finding is one reported invariant violation.
type Finding struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s: %s: %s", f.Pos, f.Analyzer, f.Message)
}

// Package is one parsed package directory.
type Package struct {
	// Path is the import path (module path joined with the directory).
	Path string
	// Fset positions the files.
	Fset *token.FileSet
	// Files are all parsed .go files of the directory, tests included.
	Files []*ast.File
}

// All lists every analyzer, in reporting order.
var All = []*Analyzer{Frozenmutate, Lockorder, Boundedlabels, Commitclock, Specimport, Dropresult}

// Load walks the module rooted at dir and parses every package directory
// (skipping testdata, vendored and hidden trees). The module path is read
// from go.mod so findings can be scoped by import path.
func Load(dir string) ([]*Package, error) {
	modPath, err := modulePath(dir)
	if err != nil {
		return nil, err
	}
	byDir := map[string]*Package{}
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != dir && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") ||
				name == "testdata" || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		pkgDir := filepath.Dir(path)
		pkg := byDir[pkgDir]
		if pkg == nil {
			rel, err := filepath.Rel(dir, pkgDir)
			if err != nil {
				return err
			}
			p := modPath
			if rel != "." {
				p = modPath + "/" + filepath.ToSlash(rel)
			}
			pkg = &Package{Path: p, Fset: token.NewFileSet()}
			byDir[pkgDir] = pkg
		}
		f, err := parser.ParseFile(pkg.Fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return fmt.Errorf("lint: %w", err)
		}
		pkg.Files = append(pkg.Files, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pkgs := make([]*Package, 0, len(byDir))
	for _, p := range byDir {
		pkgs = append(pkgs, p)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// modulePath reads the module directive of dir/go.mod.
func modulePath(dir string) (string, error) {
	b, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("lint: %s is not a module root: %w", dir, err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s/go.mod", dir)
}

// Run applies the analyzers to the packages and returns the findings
// sorted by position.
func Run(pkgs []*Package, analyzers []*Analyzer) []Finding {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Path: pkg.Path,
				analyzer: a, findings: &findings}
			a.Run(pass)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Pos, findings[j].Pos
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings
}

// selRoot matches expr against a selector chain ending in
// <...>.<field>.<method> and returns the field name when the method
// matches, e.g. selRoot(`r.commitMu.Lock`, "Lock") = "commitMu".
func selRoot(expr ast.Expr, method string) string {
	sel, ok := expr.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return ""
	}
	switch x := sel.X.(type) {
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// calleeName returns the method/function name a call invokes, or "".
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fn.Sel.Name
	case *ast.Ident:
		return fn.Name
	}
	return ""
}

// funcBodies yields every function or method body of the pass with its
// name, including function literals (named after the enclosing function).
func funcBodies(p *Pass, fn func(name string, body *ast.BlockStmt)) {
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn(fd.Name.Name, fd.Body)
		}
	}
}
