package lint

import (
	"go/ast"
)

// lockOrder is the repository's lock hierarchy, outermost first: applyMu
// (one evaluation at a time, held across a whole evaluate-and-enqueue),
// diskMu (disk I/O, held for milliseconds across fsyncs), commitMu (the
// in-memory commit section, held for nanoseconds).
var lockOrder = []string{"applyMu", "diskMu", "commitMu"}

// leafLocks are mutexes held for a few assignments with no call made under
// them, so no other lock can be taken inside one and none can take part in a
// deadlock. planMu guards the repository's plan cache, which applies read
// and fill under applyMu and queries under no lock at all: it is held for a
// slot read or a store, never across a compile.
var leafLocks = []string{"planMu"}

// Lockorder enforces that hierarchy: a mutex is never acquired while one
// that comes after it is held. diskMu.Lock() under commitMu deadlocks
// against the group-commit leader, which takes diskMu first and then
// briefly re-enters commitMu to seal the batch; applyMu.Lock() under
// diskMu or commitMu deadlocks against an operation that quiesces the
// repository, which holds applyMu while it waits for diskMu. A leaf lock
// (leafLocks) comes after all of them: any call made while it is held is a
// finding.
var Lockorder = &Analyzer{
	Name: "lockorder",
	Doc:  "flag a Lock() that inverts the order applyMu -> diskMu -> commitMu, and any call under a leaf lock",
	Run:  runLockorder,
}

func runLockorder(p *Pass) {
	funcBodies(p, func(name string, body *ast.BlockStmt) {
		for i, inner := range lockOrder[1:] {
			outer := lockOrder[:i+1]
			scan := &lockScan{mutex: inner, onHeld: func(call *ast.CallExpr) {
				for _, mu := range outer {
					if selRoot(call.Fun, "Lock") == mu {
						p.Reportf(call.Pos(),
							"%s.Lock() while %s is held in %s: the lock order is applyMu -> diskMu -> commitMu (release %s first)",
							mu, inner, name, inner)
					}
				}
			}}
			scan.scanBody(body)
		}
		for _, leaf := range leafLocks {
			scan := &lockScan{mutex: leaf, onHeld: func(call *ast.CallExpr) {
				p.Reportf(call.Pos(), "call while %s is held in %s: it is a leaf lock, held for assignments only", leaf, name)
			}}
			scan.scanBody(body)
		}
	})
}
