package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"repro/internal/analysis/framework"
)

// Shared machinery for the flow-sensitive analyzers (framebalance,
// lockpair): the one balance check both run, function enumeration, call
// scanning that respects function-literal boundaries, and canonical
// expression keys.

// balanceOp classifies a call as opening (+1) or closing (-1) the key
// its operand names — a profile frame pushed or popped, a lock acquired
// or released — or as neither (delta 0).
type balanceOp func(pass *framework.Pass, aliases aliasMap, call *ast.CallExpr) (operand ast.Expr, delta int)

// checkBalance is the balance check framebalance and lockpair share.
// For each function body in the package's non-test files that op sees,
// it solves the interval dataflow of each key's net count and hands
// atExit the net over the normal exits, anchored at the key's first
// event in the body (bodies with no normal exit are skipped). It
// returns the package-wide first sighting of each type-qualified key
// as an opener and as a closer: a protocol split across helpers leaves
// every function self-consistent, so deleting its only close shows up
// only as a key with one side (see reportUnpaired).
func checkBalance(pass *framework.Pass, op balanceOp, opts framework.CFGOptions,
	atExit func(fn funcUnit, key string, net intv, pos token.Pos)) (opened, closed map[string]token.Pos) {
	info := pass.TypesInfo
	opened, closed = map[string]token.Pos{}, map[string]token.Pos{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, fn := range functionsIn(f) {
			aliases := collectAliases(info, fn.body)
			firstPos := map[string]token.Pos{}
			scanCalls(fn.body, func(call *ast.CallExpr) {
				operand, delta := op(pass, aliases, call)
				if delta == 0 {
					return
				}
				if key := aliases.exprKey(info, operand); firstPos[key] == token.NoPos {
					firstPos[key] = call.Pos()
				}
				side := opened
				if delta < 0 {
					side = closed
				}
				if qkey := aliases.qualifiedKey(info, operand); side[qkey] == token.NoPos {
					side[qkey] = call.Pos()
				}
			})
			if len(firstPos) == 0 {
				continue
			}

			res := framework.Solve(framework.BuildCFG(fn.body, opts), &framework.FlowProblem{
				Entry: balanceFact{},
				Transfer: func(b *framework.Block, in framework.Fact) framework.Fact {
					f := in.(balanceFact)
					out, cloned := f, false
					for _, n := range b.Nodes {
						scanCalls(n, func(call *ast.CallExpr) {
							operand, delta := op(pass, aliases, call)
							if delta == 0 {
								return
							}
							if !cloned {
								out, cloned = f.clone(), true
							}
							key := aliases.exprKey(info, operand)
							out[key] = out.get(key).add(delta)
						})
					}
					return out
				},
				Join:  joinBalance,
				Equal: equalBalance,
			})
			exit, _ := res.ExitFact().(balanceFact)
			if exit == nil {
				continue // no normal exit: a combiner loop or always-panicking body
			}
			for _, k := range sortedKeys(firstPos) {
				atExit(fn, k, exit.get(k), firstPos[k])
			}
		}
	}
	return opened, closed
}

// reportUnpaired reports each key seen on one side of the package but
// not the other; openedOnly and closedOnly are the two messages, each
// formatting the key.
func reportUnpaired(pass *framework.Pass, opened, closed map[string]token.Pos, openedOnly, closedOnly string) {
	for _, k := range sortedKeys(opened) {
		if _, ok := closed[k]; !ok {
			pass.Reportf(opened[k], openedOnly, k)
		}
	}
	for _, k := range sortedKeys(closed) {
		if _, ok := opened[k]; !ok {
			pass.Reportf(closed[k], closedOnly, k)
		}
	}
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// funcUnit is one function-like body analyzed as its own control-flow
// context: a declared function/method, or a function literal (whose
// enclosing function sees it as a single opaque expression).
type funcUnit struct {
	name string
	decl *ast.FuncDecl // nil for function literals
	body *ast.BlockStmt
}

// functionsIn enumerates every function body in f: declarations first,
// then each function literal (in source order) as a separate unit.
func functionsIn(f *ast.File) []funcUnit {
	var units []funcUnit
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		units = append(units, funcUnit{name: fd.Name.Name, decl: fd, body: fd.Body})
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				units = append(units, funcUnit{
					name: fd.Name.Name + " (function literal)",
					body: lit.Body,
				})
			}
			return true
		})
	}
	return units
}

// scanCalls visits every call expression in n in source order, without
// descending into nested function literals — those are separate flow
// contexts enumerated by functionsIn.
func scanCalls(n ast.Node, visit func(*ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// callReceiver returns the receiver expression of a method-style call
// (x.M(...)), or nil for plain calls.
func callReceiver(call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return sel.X
}

// aliasTarget is the expression a type-assertion alias stands for.
type aliasTarget struct {
	key string
	typ types.Type // static type of the asserted operand
}

// aliasMap maps local variable objects to the expression they alias. It
// canonicalizes the common `hl, ok := l.(hintedLock)` idiom, where the
// asserted value is the same object under a second name, so an acquire
// through the assertion and a release through the original pair up.
type aliasMap map[types.Object]aliasTarget

// collectAliases records type-assertion aliases declared in body.
func collectAliases(info *types.Info, body *ast.BlockStmt) aliasMap {
	aliases := aliasMap{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Rhs) != 1 {
			return true
		}
		ta, ok := ast.Unparen(as.Rhs[0]).(*ast.TypeAssertExpr)
		if !ok || ta.Type == nil || len(as.Lhs) == 0 {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Defs[id]; obj != nil {
			x := ast.Unparen(ta.X)
			aliases[obj] = aliasTarget{key: types.ExprString(x), typ: info.Types[x].Type}
		}
		return true
	})
	return aliases
}

// exprKey renders e as a canonical, deterministic string key, resolving
// a top-level type-assertion alias back to the original expression.
func (a aliasMap) exprKey(info *types.Info, e ast.Expr) string {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if t, ok := a[info.Uses[id]]; ok && t.key != "" {
			return t.key
		}
	}
	return types.ExprString(e)
}

// qualifiedKey names an expression for package-wide matching: a field
// selector is qualified by the owning named type ("Monitor.mu",
// "base.frameCS") so the same field is one key across every method that
// touches it regardless of receiver variable names; anything else keeps
// its canonical string.
func (a aliasMap) qualifiedKey(info *types.Info, e ast.Expr) string {
	key := a.exprKey(info, e)
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return key
	}
	t := info.Types[sel.X].Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && n.Obj() != nil {
		return n.Obj().Name() + "." + sel.Sel.Name
	}
	return key
}

// exprType returns the static type of e, seen through a top-level
// type-assertion alias (the asserted operand's type, not the narrowed
// one — lock-likeness is a property of the original object).
func (a aliasMap) exprType(info *types.Info, e ast.Expr) types.Type {
	e = ast.Unparen(e)
	if id, ok := e.(*ast.Ident); ok {
		if t, ok := a[info.Uses[id]]; ok && t.typ != nil {
			return t.typ
		}
	}
	return info.Types[e].Type
}

// intv is a clamped integer interval tracking the possible net count of
// one key (pushed frames, held locks) along the paths reaching a point.
// Bounds are clamped to ±intvClamp so loops that accumulate reach a
// fixpoint; a clamped bound still differs from its partner, which is
// all the balance checks need.
type intv struct{ lo, hi int }

const intvClamp = 4

func clamp(v int) int {
	if v > intvClamp {
		return intvClamp
	}
	if v < -intvClamp {
		return -intvClamp
	}
	return v
}

func (iv intv) add(d int) intv {
	return intv{clamp(iv.lo + d), clamp(iv.hi + d)}
}

func (iv intv) String() string { return fmt.Sprintf("%d..%d", iv.lo, iv.hi) }

// balanceFact maps keys to their count interval. A missing key is
// {0, 0}.
type balanceFact map[string]intv

func (f balanceFact) clone() balanceFact {
	g := make(balanceFact, len(f))
	for k, v := range f {
		g[k] = v
	}
	return g
}

func (f balanceFact) get(k string) intv {
	if v, ok := f[k]; ok {
		return v
	}
	return intv{}
}

func joinBalance(a, b framework.Fact) framework.Fact {
	fa, fb := a.(balanceFact), b.(balanceFact)
	out := make(balanceFact, len(fa)+len(fb))
	for k, va := range fa {
		vb := fb.get(k)
		out[k] = intv{min(va.lo, vb.lo), max(va.hi, vb.hi)}
	}
	for k, vb := range fb {
		if _, seen := fa[k]; !seen {
			va := intv{}
			out[k] = intv{min(va.lo, vb.lo), max(va.hi, vb.hi)}
		}
	}
	// Keys absent from both stay {0,0} implicitly; keys present in only
	// one side joined against {0,0} above.
	return out
}

// equalBalance compares through get so zero-valued entries are
// semantically absent.
func equalBalance(a, b framework.Fact) bool {
	fa, fb := a.(balanceFact), b.(balanceFact)
	for k, v := range fa {
		if fb.get(k) != v {
			return false
		}
	}
	for k, v := range fb {
		if fa.get(k) != v {
			return false
		}
	}
	return true
}
