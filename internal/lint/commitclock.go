package lint

import (
	"go/ast"
)

// Commitclock keeps wall-clock reads out of the group-commit critical
// section. commitMu gates every writer: the section must stay a few
// pointer swaps long, and the journal's append/fsync latency probes
// (time.Now/time.Since pairs) belong around the disk calls under diskMu
// — never inside commitMu, where a vDSO stall or a clock-probe syscall
// stretches the serialization point of the whole pipeline. A stage timer
// reads the clock too: opening one (obs.Span.Stage) or ending one (End, on
// a stage or a span) is a clock read, matched by the method's name and
// argument count. Deferred closures are exempt: they run at return, after
// the section the analyzer cares about.
var Commitclock = &Analyzer{
	Name: "commitclock",
	Doc:  "flag time.Now()/time.Since() and stage timers while commitMu is held (probe latency outside the commit section)",
	Run:  runCommitclock,
}

// clockMethods are the methods of obs.Span and obs.Stage that read the
// clock, by name and argument count.
var clockMethods = map[string]int{"Stage": 1, "End": 0}

func runCommitclock(p *Pass) {
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		scan := &lockScan{mutex: "commitMu", onHeld: func(call *ast.CallExpr) {
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return
			}
			method := sel.Sel.Name
			if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "time" {
				if method == "Now" || method == "Since" {
					p.Reportf(call.Pos(),
						"time.%s() while commitMu is held in %s: wall-clock probes belong outside the commit critical section",
						method, name)
				}
				return
			}
			if n, ok := clockMethods[method]; ok && len(call.Args) == n {
				p.Reportf(call.Pos(),
					"%s() reads the clock while commitMu is held in %s: stage timers belong outside the commit critical section",
					method, name)
			}
		}}
		scan.scanBody(body)
	})
}
