package lint

import (
	"go/ast"
	"strings"
)

// frozenProducers are the calls that hand out a Freeze()d *objectbase.Base:
// the repository accessors publish frozen snapshots, Freeze itself returns
// its (now immutable) receiver, and Derive builds a frozen base that shares
// states with the one it was derived from.
var frozenProducers = map[string]bool{
	"Freeze":   true,
	"Derive":   true,
	"Head":     true,
	"Snapshot": true,
	"At":       true,
}

// frozenMutators are the Base methods that panic on a frozen receiver.
var frozenMutators = map[string]bool{
	"Insert":        true,
	"Remove":        true,
	"SetState":      true,
	"SetStateFresh": true,
	"Adopt":         true,
	"AddTo":         true,
	"RemoveFrom":    true,
	"EnsureObject":  true,
}

// Frozenmutate flags mutations of a frozen base outside the objectbase
// package: a call to a mutator (Insert, Remove, SetState, EnsureObject, the
// in-place editors Adopt/AddTo/RemoveFrom, ...) on a variable that was
// assigned from Freeze(), Derive(), Head(), Snapshot() or At()
// and never re-derived through Clone(). Such a call panics at
// runtime ("mutation of a frozen base") — the linter moves the failure
// to CI. The objectbase package itself is exempt: it implements the
// freeze discipline.
var Frozenmutate = &Analyzer{
	Name: "frozenmutate",
	Doc: "flag Insert/Remove/SetState/AddTo/... on a base obtained from " +
		"Freeze/Derive/Head/Snapshot/At without an intervening Clone",
	Run: runFrozenmutate,
}

func runFrozenmutate(p *Pass) {
	if strings.HasSuffix(p.Path, "internal/objectbase") {
		return
	}
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		// frozen maps a local variable name to the producer that froze it.
		frozen := map[string]string{}
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				trackAssign(n, frozen)
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				recv, ok := sel.X.(*ast.Ident)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Freeze" {
					frozen[recv.Name] = "Freeze"
					return true
				}
				if producer := frozen[recv.Name]; producer != "" && frozenMutators[sel.Sel.Name] {
					p.Reportf(n.Pos(), "%s.%s mutates a frozen base (%s came from %s(); Clone() it first)",
						recv.Name, sel.Sel.Name, recv.Name, producer)
				}
			}
			return true
		})
	})
}

// trackAssign updates the frozen set for one assignment: a left-hand
// variable becomes frozen when its right-hand side is a frozen-producer
// call, and thaws on any other assignment (Clone(), New(), a literal...).
func trackAssign(as *ast.AssignStmt, frozen map[string]string) {
	producer := ""
	if len(as.Rhs) == 1 {
		producer = producerOf(as.Rhs[0])
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		switch {
		case len(as.Rhs) == len(as.Lhs) && len(as.Rhs) > 1:
			if pr := producerOf(as.Rhs[i]); pr != "" {
				frozen[id.Name] = pr
			} else {
				delete(frozen, id.Name)
			}
		case producer != "" && i == 0:
			// Multi-value form `b, err := r.Head()`: the base is the
			// first result.
			frozen[id.Name] = producer
		default:
			delete(frozen, id.Name)
		}
	}
}

// producerOf returns the frozen-producer name when expr is a call to one.
func producerOf(expr ast.Expr) string {
	call, ok := expr.(*ast.CallExpr)
	if !ok {
		return ""
	}
	name := calleeName(call)
	if frozenProducers[name] {
		return name
	}
	return ""
}
