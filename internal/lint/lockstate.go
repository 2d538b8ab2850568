package lint

import (
	"go/ast"
)

// lockScan is a tiny intra-function flow analysis over one mutex: it
// walks a statement list in source order tracking whether the mutex is
// held, and invokes a callback on every node visited while it is.
//
// The analysis understands the codebase's locking idioms:
//
//   - mu.Lock() / mu.Unlock() toggle the state in straight-line code;
//   - `defer mu.Unlock()` keeps the mutex held for the rest of the
//     function (which is exactly the runtime behavior);
//   - an if/else (or case) branch that ends in a terminating statement
//     (return, panic, continue, break, goto) does not leak its state
//     into the fallthrough path — so the ubiquitous
//     `if cond { mu.Unlock(); return }` early-exit does not make the
//     scanner believe the main path released the lock;
//   - function literals are scanned independently with the mutex
//     considered free (deferred closures run at return time, after the
//     critical section the linter cares about).
//
// It is a heuristic, not a proof: interprocedural locking (helpers named
// *Locked) and branches that unlock on the fallthrough path are out of
// scope. Both analyzers built on it only ever report patterns inside a
// critical section the scan is certain about.
type lockScan struct {
	mutex string // field name, e.g. "commitMu"
	// onHeld is called on every call expression evaluated while the
	// mutex is held; the analyzer filters for the calls it forbids.
	onHeld func(call *ast.CallExpr)
}

// scanBody analyzes one function body from the unlocked state.
func (s *lockScan) scanBody(body *ast.BlockStmt) {
	s.scanStmts(body.List, false)
}

// scanStmts walks stmts with the given entry state and returns the state
// at the fall-through exit.
func (s *lockScan) scanStmts(stmts []ast.Stmt, held bool) bool {
	for _, st := range stmts {
		held = s.scanStmt(st, held)
	}
	return held
}

func (s *lockScan) scanStmt(st ast.Stmt, held bool) bool {
	switch st := st.(type) {
	case *ast.ExprStmt:
		return s.scanExpr(st.X, held)
	case *ast.AssignStmt:
		for _, r := range st.Rhs {
			held = s.scanExpr(r, held)
		}
		return held
	case *ast.DeferStmt:
		// defer mu.Unlock() releases at return: the mutex stays held for
		// the remainder of the scan. Other deferred calls (incl. closures)
		// run outside the critical section.
		if selRoot(st.Call.Fun, "Unlock") == s.mutex {
			return held
		}
		s.scanClosures(st.Call, false)
		return held
	case *ast.GoStmt:
		s.scanClosures(st.Call, false)
		return held
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			held = s.scanExpr(r, held)
		}
		return held
	case *ast.BlockStmt:
		return s.scanStmts(st.List, held)
	case *ast.IfStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		held = s.scanExpr(st.Cond, held)
		after := s.scanStmts(st.Body.List, held)
		if terminates(st.Body.List) {
			after = held // the branch never falls through
		}
		if st.Else != nil {
			elseAfter := s.scanStmt(st.Else, held)
			if !elseTerminates(st.Else) && elseAfter != after {
				// Branches disagree; stay conservative and keep the entry
				// state so neither path is misjudged.
				after = held
			}
		}
		return after
	case *ast.ForStmt:
		if st.Init != nil {
			held = s.scanStmt(st.Init, held)
		}
		if st.Cond != nil {
			held = s.scanExpr(st.Cond, held)
		}
		s.scanStmts(st.Body.List, held)
		return held
	case *ast.RangeStmt:
		held = s.scanExpr(st.X, held)
		s.scanStmts(st.Body.List, held)
		return held
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(st, func(n ast.Node) bool {
			if cc, ok := n.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body, held)
				return false
			}
			if cc, ok := n.(*ast.CommClause); ok {
				s.scanStmts(cc.Body, held)
				return false
			}
			return true
		})
		return held
	case *ast.LabeledStmt:
		return s.scanStmt(st.Stmt, held)
	default:
		return held
	}
}

// scanExpr visits one expression, toggling on Lock/Unlock calls of the
// tracked mutex and reporting every node seen while it is held.
func (s *lockScan) scanExpr(e ast.Expr, held bool) bool {
	if e == nil {
		return held
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			s.scanStmts(fl.Body.List, false)
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if selRoot(call.Fun, "Lock") == s.mutex {
			held = true
			return false
		}
		if selRoot(call.Fun, "Unlock") == s.mutex {
			held = false
			return false
		}
		if held {
			s.onHeld(call)
		}
		return true
	})
	return held
}

// scanClosures scans only the function literals inside call.
func (s *lockScan) scanClosures(call *ast.CallExpr, held bool) {
	ast.Inspect(call, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			s.scanStmts(fl.Body.List, held)
			return false
		}
		return true
	})
}

// terminates reports whether a statement list cannot fall through.
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch last := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(last.List)
	}
	return false
}

func elseTerminates(st ast.Stmt) bool {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return terminates(st.List)
	case *ast.IfStmt:
		return terminates(st.Body.List) && st.Else != nil && elseTerminates(st.Else)
	}
	return false
}
