package verlog

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSupport lists the exported names in internal/... that only tests use
// on purpose: support that several packages' tests share. An entry names a
// package-level object as "pkg.Name" or a method as "pkg.Type.Method"; an
// entry naming a type covers its methods and its constructor NewType too.
// Each entry gives its reason in one line.
var testSupport = map[string]string{
	"fsio.Fault":                          "the fault-injecting filesystem of the storage, repository, replication and tenant tests",
	"fsio.ErrInjected":                    "the error a crashed fsio.Fault returns, which those tests tell from a real failure",
	"term.GV":                             "the version constructor the tests write versions with",
	"objectbase.Base.Depth":               "the overlay depth the objectbase and eval tests bound",
	"objectbase.State.CloneWithoutMethod": "the state edit the objectbase and eval tests build inputs with",
	"workload.BulkRaiseProgram":           "the bulk_raise program of the root package's guards and the repository tests",
	"objectbase.Diff.Apply":               "the diff replay E31 holds recovery by evaluation against, and the storage tests' round trip",
}

// notShipping are the module's packages whose non-test Go serves the tests
// only: the spec oracle and the objectbase test helpers. Every other
// package ships, benchmarks/ included.
var notShipping = map[string]bool{
	"verlog/internal/spec":              true,
	"verlog/internal/objectbase/obtest": true,
}

// TestExportsHaveShippingCallers: every exported package-level name and
// method of a shipping package under internal/ is reached from shipping
// code, or has an entry in testSupport. Shipping code is the module's
// non-test Go outside notShipping; it is entered at the main packages'
// main and the public packages' exported API, and at every init. A
// method of a reached type also counts as reached when some interface
// type of the module or of a standard-library package it imports declares
// a method of the same name and signature: a call through the interface
// reaches it. Test-only exports rot unseen and make the engine's API look
// larger than it is; this keeps each one a decision.
func TestExportsHaveShippingCallers(t *testing.T) {
	if raceDetectorEnabled {
		t.Skip("type-checks the module and checks no concurrency; runs without -race")
	}
	pkgs, fset, err := typeCheckModule()
	if errors.Is(err, exec.ErrNotFound) {
		t.Skipf("no go command to list the module with: %v", err)
	}
	if err != nil {
		t.Fatalf("type-checking the module: %v", err)
	}
	var shipping []*modulePackage
	for _, p := range pkgs {
		if !notShipping[p.path] {
			shipping = append(shipping, p)
		}
	}
	reached := reach(shipping, interfaceMethods(pkgs))

	exported := map[string]types.Object{}
	for _, p := range shipping {
		if strings.HasPrefix(p.path, "verlog/internal/") {
			p.exportedObjects(exported)
		}
	}
	var unused []string
	for name, obj := range exported {
		if !reached[obj] && !covered(name) {
			unused = append(unused, fmt.Sprintf("%s (%s)", name, fset.Position(obj.Pos())))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no shipping code uses it: delete it, unexport it, move it to its one user, or list it in testSupport", u)
	}
	for entry := range testSupport {
		obj, ok := exported[entry]
		switch {
		case !ok:
			t.Errorf("testSupport lists %s, which no longer exists", entry)
		case reached[obj]:
			t.Errorf("testSupport lists %s, which shipping code now uses: drop the entry", entry)
		}
	}
}

// covered reports whether a testSupport entry covers the exported name:
// the entry itself, a method of an entry's type, or an entry type's
// constructor.
func covered(name string) bool {
	pkg, rest, _ := strings.Cut(name, ".")
	typ, _, _ := strings.Cut(rest, ".") // a method's type, else the name
	_, byName := testSupport[name]
	_, byType := testSupport[pkg+"."+typ]
	_, byCtor := testSupport[pkg+"."+strings.TrimPrefix(typ, "New")]
	return byName || byType || byCtor
}

// modulePackage is one type-checked package of the module.
type modulePackage struct {
	path  string
	files []*ast.File
	pkg   *types.Package
	info  *types.Info
}

// typeCheckModule type-checks the non-test Go of every package of the
// module from source, in dependency order, importing the standard library
// from the compiler's export data.
func typeCheckModule() ([]*modulePackage, *token.FileSet, error) {
	out, err := exec.Command("go", "list", "-deps", "-json", "./...").Output()
	if err != nil {
		return nil, nil, err
	}
	fset := token.NewFileSet()
	std := importer.ForCompiler(fset, "gc", nil)
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := checked[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})
	var pkgs []*modulePackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var lp struct {
			ImportPath, Dir string
			Standard        bool
			GoFiles         []string
		}
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, err
		}
		if lp.Standard {
			continue
		}
		p := &modulePackage{path: lp.ImportPath, info: &types.Info{
			Defs: map[*ast.Ident]types.Object{},
			Uses: map[*ast.Ident]types.Object{},
		}}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		if p.pkg, err = conf.Check(lp.ImportPath, fset, p.files, p.info); err != nil {
			return nil, nil, err
		}
		checked[lp.ImportPath] = p.pkg
		pkgs = append(pkgs, p)
	}
	return pkgs, fset, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// reach returns the objects reached from the entry points of the given
// packages: each main package's main, each public (non-internal) package's
// exported names and their methods, and every init. A top-level
// declaration reaches what its text refers to; a reached type reaches its
// methods that some interface declares. A blank declaration (var _ I =
// (*T)(nil)) asserts and reaches nothing.
func reach(pkgs []*modulePackage, ifaces methodSet) map[types.Object]bool {
	refs := map[types.Object][]types.Object{}             // declaration -> what it refers to
	inits := types.NewFunc(token.NoPos, nil, "init", nil) // stands for every init
	roots := []types.Object{inits}
	for _, p := range pkgs {
		public := p.pkg.Name() != "main" && !strings.Contains(p.path, "/internal/")
		for _, f := range p.files {
			for _, decl := range f.Decls {
				for _, d := range p.declarations(decl) {
					for _, obj := range d.objs {
						if obj == nil {
							obj = inits
						}
						refs[obj] = append(refs[obj], p.uses(d.node, d.objs)...)
						switch {
						case obj == inits:
						case p.pkg.Name() == "main" && obj.Name() == "main",
							public && obj.Exported() && (obj.Parent() == p.pkg.Scope() || isMethod(obj)):
							roots = append(roots, obj)
						}
					}
				}
			}
		}
	}
	reached := map[types.Object]bool{}
	for len(roots) > 0 {
		obj := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if reached[obj] {
			continue
		}
		reached[obj] = true
		roots = append(roots, refs[obj]...)
		if tn, ok := obj.(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := range named.NumMethods() {
					if m := named.Method(i); ifaces.declares(m) {
						roots = append(roots, m)
					}
				}
			}
		}
	}
	return reached
}

func isMethod(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	return ok && fn.Type().(*types.Signature).Recv() != nil
}

// declaration is the syntax of one top-level declaration, a function or
// one spec of a type, var or const group, and the objects it declares (a
// nil object for an init function, none for a blank declaration).
type declaration struct {
	node ast.Node
	objs []types.Object
}

func (p *modulePackage) declarations(decl ast.Decl) []declaration {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil && d.Name.Name == "init" {
			return []declaration{{d, []types.Object{nil}}}
		}
		return []declaration{{d, []types.Object{p.info.Defs[d.Name]}}}
	case *ast.GenDecl:
		var out []declaration
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				out = append(out, declaration{s, []types.Object{p.info.Defs[s.Name]}})
			case *ast.ValueSpec:
				var objs []types.Object
				for _, name := range s.Names {
					if name.Name != "_" {
						objs = append(objs, p.info.Defs[name])
					}
				}
				out = append(out, declaration{s, objs})
			}
		}
		return out
	}
	return nil
}

// uses returns the objects a declaration's text refers to, and the named
// types of what it declares (a constant in an iota group names its type
// only on the group's first line).
func (p *modulePackage) uses(node ast.Node, declared []types.Object) []types.Object {
	var objs []types.Object
	for _, obj := range declared {
		if obj == nil {
			continue
		}
		if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
			objs = append(objs, named.Obj())
		}
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && p.info.Uses[id] != nil {
			objs = append(objs, origin(p.info.Uses[id]))
		}
		return true
	})
	return objs
}

// origin maps a use of an instantiated generic's field or method to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// exportedObjects adds the package's exported package-level objects and
// the exported methods of its named types, keyed "pkg.Name" and
// "pkg.Type.Method".
func (p *modulePackage) exportedObjects(into map[string]types.Object) {
	scope := p.pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		into[p.pkg.Name()+"."+name] = obj
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := range named.NumMethods() {
			if m := named.Method(i); m.Exported() {
				into[p.pkg.Name()+"."+name+"."+m.Name()] = m
			}
		}
	}
}

// methodSet holds the methods interface types declare, by name.
type methodSet map[string][]*types.Signature

// interfaceMethods collects the methods of every named interface type of
// the module and of the standard-library packages it imports, directly or
// not, and the error-chain methods package errors calls through unnamed
// interfaces (Unwrap, Is, As).
func interfaceMethods(pkgs []*modulePackage) methodSet {
	ms := methodSet{}
	errType := types.Universe.Lookup("error").Type()
	tuple := func(ts ...types.Type) *types.Tuple {
		vars := make([]*types.Var, len(ts))
		for i, t := range ts {
			vars[i] = types.NewParam(token.NoPos, nil, "", t)
		}
		return types.NewTuple(vars...)
	}
	sig := func(params, results *types.Tuple) *types.Signature {
		return types.NewSignatureType(nil, nil, nil, params, results, false)
	}
	ms["Unwrap"] = []*types.Signature{sig(nil, tuple(errType)), sig(nil, tuple(types.NewSlice(errType)))}
	ms["Is"] = []*types.Signature{sig(tuple(errType), tuple(types.Typ[types.Bool]))}
	ms["As"] = []*types.Signature{sig(tuple(types.Universe.Lookup("any").Type()), tuple(types.Typ[types.Bool]))}

	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			iface, ok := tn.Type().Underlying().(*types.Interface)
			if !ok {
				continue
			}
			for i := range iface.NumMethods() {
				m := iface.Method(i)
				ms[m.Name()] = append(ms[m.Name()], m.Type().(*types.Signature))
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.pkg)
	}
	return ms
}

// declares reports whether some interface declares a method of fn's name
// and signature (receivers aside).
func (ms methodSet) declares(fn *types.Func) bool {
	for _, s := range ms[fn.Name()] {
		if types.Identical(s, fn.Type()) {
			return true
		}
	}
	return false
}
