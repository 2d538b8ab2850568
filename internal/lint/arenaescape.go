package lint

import (
	"go/ast"
	"go/token"
)

// arenaGetters are the free-list/arena pop calls that hand out scratch
// buffers: the executor's frame arena and its candidate free-lists
// (internal/eval/exec.go). A popped buffer is only valid until its
// matching put* pushes it back at the end of the enclosing enumeration —
// the lists are reused across fixpoint iterations, so a buffer that
// escapes into longer-lived storage is aliased and silently overwritten
// on a later iteration.
var arenaGetters = map[string]bool{
	"getFrame": true,
	"getVIDs":  true,
	"getOIDs":  true,
	"getKRs":   true,
}

// Arenaescape flags arena-popped scratch buffers escaping their
// enumeration: a variable assigned from getFrame/getVIDs/getOIDs/getKRs
// that is stored into a field or map element, returned, or captured by an
// append whose result lands outside a plain local. Copy the contents out
// (append to a fresh slice) instead of retaining the buffer.
var Arenaescape = &Analyzer{
	Name: "arenaescape",
	Doc: "flag frame/candidate buffers popped from an eval arena free-list " +
		"that are stored past the enumeration (field/map stores, returns)",
	Run: runArenaescape,
}

func runArenaescape(p *Pass) {
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		// tracked maps a local name to the getter it was popped from.
		tracked := map[string]string{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				trackArenaAssign(p, n, tracked)
			case *ast.ReturnStmt:
				for _, res := range n.Results {
					if id, ok := res.(*ast.Ident); ok && tracked[id.Name] != "" {
						p.Reportf(res.Pos(), "%s (popped from %s) is returned; the free-list reuses it next iteration — copy the contents instead",
							id.Name, tracked[id.Name])
					}
				}
			}
			return true
		})
	})
}

// trackArenaAssign updates the tracked set for one assignment and reports
// stores that let a tracked buffer outlive its enumeration.
func trackArenaAssign(p *Pass, as *ast.AssignStmt, tracked map[string]string) {
	// Right side first: does any RHS expression leak a tracked buffer into
	// a non-local LHS? A plain `buf2 := buf` alias is tracked, not
	// reported; `x.field = buf`, `m[k] = buf` and `x.field = append(...,
	// buf...)` are escapes.
	for i, rhs := range as.Rhs {
		var lhs ast.Expr
		if i < len(as.Lhs) {
			lhs = as.Lhs[i]
		} else if len(as.Lhs) == 1 {
			lhs = as.Lhs[0]
		}
		leaked := leakedArenaVar(rhs, tracked)
		if leaked == "" {
			continue
		}
		switch l := lhs.(type) {
		case *ast.Ident:
			// Local alias: keep tracking under the new name.
			if _, isCall := rhs.(*ast.CallExpr); !isCall {
				tracked[l.Name] = tracked[leaked]
			}
		default:
			p.Reportf(as.Pos(), "%s (popped from %s) is stored into %s; the free-list reuses it next iteration — copy the contents instead",
				leaked, tracked[leaked], renderLHS(lhs))
		}
	}
	// Left side second: any other assignment to a tracked name unbinds it
	// (a fresh make/slice literal replaces the arena buffer).
	if as.Tok != token.DEFINE && as.Tok != token.ASSIGN {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		var rhs ast.Expr
		if i < len(as.Rhs) {
			rhs = as.Rhs[i]
		} else if len(as.Rhs) == 1 {
			rhs = as.Rhs[0]
		}
		if getter := arenaGetterOf(rhs); getter != "" {
			tracked[id.Name] = getter
		} else if leakedArenaVar(rhs, tracked) == "" {
			delete(tracked, id.Name)
		}
	}
}

// arenaGetterOf returns the getter name when e is a call to one, else "".
func arenaGetterOf(e ast.Expr) string {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return ""
	}
	if name := calleeName(call); arenaGetters[name] {
		return name
	}
	return ""
}

// leakedArenaVar returns the name of a tracked buffer referenced by e at a
// position that preserves the buffer's identity: the expression itself, or
// the first argument of an append (append(buf, ...) returns buf's backing
// array unless it grows).
func leakedArenaVar(e ast.Expr, tracked map[string]string) string {
	switch x := e.(type) {
	case *ast.Ident:
		if tracked[x.Name] != "" {
			return x.Name
		}
	case *ast.CallExpr:
		if name := calleeName(x); name == "append" && len(x.Args) > 0 {
			if id, ok := x.Args[0].(*ast.Ident); ok && tracked[id.Name] != "" {
				return id.Name
			}
		}
	case *ast.SliceExpr:
		if id, ok := x.X.(*ast.Ident); ok && tracked[id.Name] != "" {
			return id.Name
		}
	}
	return ""
}

// renderLHS names an escape target for the finding message.
func renderLHS(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.SelectorExpr:
		if id, ok := x.X.(*ast.Ident); ok {
			return id.Name + "." + x.Sel.Name
		}
		return "a field"
	case *ast.IndexExpr:
		return "a map/slice element"
	case nil:
		return "multiple targets"
	}
	return "a non-local target"
}
