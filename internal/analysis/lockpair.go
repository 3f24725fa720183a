package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis/framework"
)

// Lockpair enforces the pairing the adaptive locks depend on: a
// lock-kind Lock/LockHint/Acquire must reach a matching Unlock/Release
// on every path out of the function, or on none. The lock protocol
// methods themselves (Lock, Unlock, ...) are exempt from the
// held-at-return check because carrying the lock across the call
// boundary is their contract; pairing acquire and release sites
// package-wide polices them instead, so a release deleted from a
// delegating Unlock leaves the key one-sided. A deferred release is
// credited at the defer site: the deferred call runs on every exit
// after that point, which is exact for the all-paths argument.
var Lockpair = &framework.Analyzer{
	Name: "lockpair",
	Doc:  "report lock acquisitions that are not released on every path",
	Run:  runLockpair,
}

var acquireDelta = map[string]int{
	"Lock": 1, "LockHint": 1, "Acquire": 1,
	"Unlock": -1, "Release": -1,
}

// protocolMethods are the lock-kind entry points whose own bodies
// legitimately end holding (or having released) a lock they did not
// balance locally: delegation wrappers and hand-off protocols.
var protocolMethods = map[string]bool{
	"Lock": true, "LockHint": true, "TryLock": true, "Acquire": true,
	"Unlock": true, "Release": true,
}

// lockLike reports whether t is (a pointer to) a named type — concrete
// or interface — defined in a package whose import path ends in "locks".
func lockLike(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Pkg() != nil &&
		framework.PathBase(obj.Pkg().Path()) == "locks"
}

// lockEvent classifies a call as an acquire (+1) or release (-1) of a
// lock-like receiver, under alias resolution.
func lockEvent(pass *framework.Pass, aliases aliasMap, call *ast.CallExpr) (ast.Expr, int) {
	delta := acquireDelta[calleeName(call)]
	if delta == 0 {
		return nil, 0
	}
	recv := callReceiver(call)
	if recv == nil || !lockLike(aliases.exprType(pass.TypesInfo, recv)) {
		return nil, 0
	}
	return recv, delta
}

func runLockpair(pass *framework.Pass) error {
	acquired, released := checkBalance(pass, lockEvent, framework.CFGOptions{},
		func(fn funcUnit, key string, net intv, pos token.Pos) {
			switch {
			case net.lo != net.hi:
				pass.Reportf(pos,
					"lock %s is released on some paths out of %s but not all (net %s at return)",
					key, fn.name, net)
			case net.lo > 0 && !lockProtocol(pass, fn):
				pass.Reportf(pos,
					"lock %s is acquired in %s but never released on any path",
					key, fn.name)
			}
		})
	reportUnpaired(pass, acquired, released,
		"lock %s is acquired but released nowhere in this package",
		"lock %s is released but acquired nowhere in this package")
	return nil
}

// lockProtocol reports whether fn is a protocol method of a lock kind.
func lockProtocol(pass *framework.Pass, fn funcUnit) bool {
	d := fn.decl
	return d != nil && d.Recv != nil && protocolMethods[d.Name.Name] &&
		len(d.Recv.List) == 1 &&
		lockLike(pass.TypesInfo.Types[d.Recv.List[0].Type].Type)
}
