package analysis

import (
	"go/ast"
	"go/types"
)

// PublishFreeze enforces the snapshot-immutability invariant of the
// serving tier: once a value has been published to readers — passed to
// serve's Store.Publish, or stored into an atomic.Pointer /
// atomic.Value via Store, Swap, or CompareAndSwap — nothing may write
// through it. Concurrent readers hold the same pointer; a
// write-after-publish is a torn read served to them, and the race
// detector only catches the schedules it happens to run.
//
// The check is flow-sensitive on the shared CFG: writes before the
// publish (the builder filling the snapshot in) are fine, writes on
// paths the publish cannot reach are fine, and rebinding the variable
// to a fresh value ends the obligation (reaching definitions decide
// whether the published definition still reaches the write). Writes
// through retained views — a local assigned the published value's
// slice, map, or field before or after the publish — are flagged via
// the alias set.
var PublishFreeze = &Analyzer{
	Name: "publishfreeze",
	Doc:  "value written after being published to readers (Store.Publish / atomic store)",
	Run:  runPublishFreeze,
}

func runPublishFreeze(pass *Pass) {
	forEachFunc(pass, func(fn ast.Node, body *ast.BlockStmt) {
		checkPublishesIn(pass, fn, body)
	})
}

// publishSite is one publish of a local variable.
type publishSite struct {
	node ast.Node // the statement containing the publish call
	call *ast.CallExpr
	obj  *types.Var // the published local
	// defs are the definitions of obj reaching the publish: a later
	// write is only a violation while one of these still reaches it.
	defs map[ast.Node]bool
	// aliases maps locals that view obj's memory to the assignment
	// that created the view.
	aliases map[types.Object]ast.Node
}

// publishedArg recognizes a publishing call and returns the published
// expression: Store.Publish(v) on serve's Store, and Store(v) /
// Swap(v) / CompareAndSwap(old, v) on atomic.Pointer or atomic.Value.
func publishedArg(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	name, _, recvType, ok := methodOn(info, call)
	if !ok {
		return nil, false
	}
	if namedIn(recvType, "internal/serve", "Store") && name == "Publish" && len(call.Args) == 1 {
		return call.Args[0], true
	}
	if namedIn(recvType, "sync/atomic", "Pointer") || namedIn(recvType, "sync/atomic", "Value") {
		switch name {
		case "Store", "Swap":
			if len(call.Args) == 1 {
				return call.Args[0], true
			}
		case "CompareAndSwap":
			if len(call.Args) == 2 {
				return call.Args[1], true
			}
		}
	}
	return nil, false
}

func checkPublishesIn(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	// Collect publish sites whose argument is a trackable local.
	var sites []*publishSite
	var fi *FuncInfo
	for _, s := range collectPublishCalls(body) {
		arg, isPublish := publishedArg(pass.Info, s)
		if !isPublish {
			continue
		}
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok {
			continue
		}
		obj, ok := objectOf(pass, id).(*types.Var)
		if !ok || obj.IsField() {
			continue
		}
		if fi == nil {
			fi = pass.FuncInfo(fn)
		}
		stmt := enclosingNode(fi.CFG, s)
		if stmt == nil {
			continue // publish in dead code or a nested literal
		}
		sites = append(sites, &publishSite{
			node:    stmt,
			call:    s,
			obj:     obj,
			defs:    fi.Reaching().DefsAt(stmt, obj),
			aliases: AliasSet(pass.Info, body, obj),
		})
	}
	if len(sites) == 0 {
		return
	}

	// Forward dataflow: the fact is the set of publish sites that have
	// executed on this path.
	type pubFact map[*publishSite]bool
	clone := func(f pubFact) pubFact {
		out := make(pubFact, len(f))
		for k := range f {
			out[k] = true
		}
		return out
	}
	res := ForwardSolve(fi.CFG, FlowProblem[pubFact]{
		Entry: pubFact{},
		Transfer: func(b *Block, in pubFact) pubFact {
			out := clone(in)
			for _, n := range b.Nodes {
				for _, site := range sites {
					if site.node == n {
						out[site] = true
					}
				}
			}
			return out
		},
		Merge: func(a, b pubFact) pubFact {
			out := clone(a)
			for k := range b {
				out[k] = true
			}
			return out
		},
		Equal: func(a, b pubFact) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if !b[k] {
					return false
				}
			}
			return true
		},
	})

	// Replay each reachable block and flag writes through published
	// values. Within the publishing block itself, only nodes after the
	// publish node count.
	rd := fi.Reaching()
	for _, b := range fi.CFG.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		live := clone(in)
		for _, n := range b.Nodes {
			for site := range live {
				checkNodeWrites(pass, rd, site, n)
			}
			for _, site := range sites {
				if site.node == n {
					live[site] = true
				}
			}
		}
	}
}

// collectPublishCalls gathers publish calls in body, skipping nested
// function literals (they get their own pass).
func collectPublishCalls(body *ast.BlockStmt) []*ast.CallExpr {
	var out []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Publish", "Store", "Swap", "CompareAndSwap":
					out = append(out, call)
				}
			}
		}
		return true
	})
	return out
}

// enclosingNode finds the CFG node whose subtree contains n.
func enclosingNode(cfg *CFG, n ast.Node) ast.Node {
	for _, b := range cfg.Blocks {
		for _, m := range b.Nodes {
			if m.Pos() <= n.Pos() && n.End() <= m.End() {
				return m
			}
		}
	}
	return nil
}

// checkNodeWrites reports writes through site's published value inside
// node n (which executes after the publish on some path).
func checkNodeWrites(pass *Pass, rd *ReachingDefs, site *publishSite, n ast.Node) {
	reportWrite := func(lhs ast.Expr, via ast.Node) {
		root := rootIdent(lhs)
		if root == nil {
			return
		}
		tgt := objectOf(pass, root)
		creator, isAlias := site.aliases[tgt]
		if !isAlias {
			return
		}
		// A plain rebind (`snap = other`, `view = nil`) points the name
		// at different memory; it ends the obligation rather than
		// violating it. Only assignment statements rebind — delete(m, k)
		// hands the bare name to a mutator.
		if _, plain := ast.Unparen(lhs).(*ast.Ident); plain {
			if _, isAssign := via.(*ast.AssignStmt); isAssign {
				return
			}
		}
		if tgt == site.obj {
			// The published definition must still reach this write —
			// if the variable was rebound since, it is a fresh value.
			if !defsIntersect(rd.DefsAt(n, site.obj), site.defs) {
				return
			}
		} else if creator != nil {
			// Alias write: the view must still be the one rooted at the
			// published object (rebinding the alias also ends it).
			if v, ok := tgt.(*types.Var); ok {
				if !rd.defsInclude(n, v, creator) {
					return
				}
			}
		}
		pass.Reportf(via.Pos(), "write to %s after it was published by %s; published snapshots are immutable — build a new value and republish",
			exprPathOrName(lhs, root), describePublish(site.call))
	}

	// The CFG's synthetic headers are not ast.Walk-able: unwrap them to
	// what the header itself evaluates. Loop and clause bodies are CFG
	// nodes of their own.
	switch h := n.(type) {
	case *SelectHeader:
		return
	case *RangeHeader:
		// `for _, snap.f = range xs` writes through a non-identifier
		// iteration variable on every pass; a bare identifier rebinds.
		for _, e := range []ast.Expr{h.R.Key, h.R.Value} {
			if e == nil {
				continue
			}
			if _, plain := ast.Unparen(e).(*ast.Ident); !plain {
				reportWrite(e, h.R)
			}
		}
		n = h.R.X
	}
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				reportWrite(lhs, m)
			}
		case *ast.IncDecStmt:
			reportWrite(m.X, m)
		case *ast.CallExpr:
			// append into a retained slice, delete/clear on a retained
			// map: the classic hidden mutations.
			if id, ok := ast.Unparen(m.Fun).(*ast.Ident); ok {
				switch id.Name {
				case "delete", "clear":
					if len(m.Args) > 0 {
						reportWrite(m.Args[0], m)
					}
				}
			}
		}
		return true
	})
}

// defsIntersect reports whether the two definition sets share a site.
func defsIntersect(a, b map[ast.Node]bool) bool {
	for k := range a {
		if b[k] {
			return true
		}
	}
	return false
}

// defsInclude reports whether def is among the definitions of v
// reaching node n.
func (rd *ReachingDefs) defsInclude(n ast.Node, v *types.Var, def ast.Node) bool {
	return rd.DefsAt(n, v)[def]
}

// objectOf resolves an identifier to its object (definition or use).
func objectOf(pass *Pass, id *ast.Ident) types.Object {
	if o := pass.Info.Defs[id]; o != nil {
		return o
	}
	return pass.Info.Uses[id]
}

// exprPathOrName renders the written expression for the diagnostic.
func exprPathOrName(lhs ast.Expr, root *ast.Ident) string {
	if p := exprPath(lhs); p != "" {
		return p
	}
	return root.Name
}

// describePublish names the publish call for the diagnostic.
func describePublish(call *ast.CallExpr) string {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if p := exprPath(sel.X); p != "" {
			return p + "." + sel.Sel.Name
		}
		return sel.Sel.Name
	}
	return "the publish call"
}
