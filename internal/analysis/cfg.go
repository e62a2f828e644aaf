package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the shared flow-analysis
// layer: a per-function control-flow graph built directly from go/ast,
// precise enough for the path questions of lockbal and spanend. It
// models branches, loops, labeled break/continue, goto,
// switch/type-switch/select, panic and return edges, and keeps defer
// statements in-line so
// dataflow transfer functions can interpret registration order.
//
// Basic blocks hold "own" nodes only: the controlling condition of a
// branch appears in the block that branches, but the branch bodies are
// their own blocks, so walking a block's nodes never re-visits a
// nested statement. Two wrapper node types (RangeHeader,
// SelectHeader) stand in for loop/select headers whose ast node would
// otherwise drag the whole body along.

// Block is one basic block: a maximal straight-line node sequence with
// edges to its successors.
type Block struct {
	// Index is the block's position in CFG.Blocks (stable, build order).
	Index int
	// Nodes are the statements and controlling expressions executed in
	// this block, in order. Entries are ast.Stmt, ast.Expr (branch
	// conditions and switch tags), *RangeHeader, or *SelectHeader.
	Nodes []ast.Node
	// Succs are the successor blocks. When Branch is non-nil there are
	// exactly two: Succs[0] on true, Succs[1] on false.
	Succs []*Block
	// Preds are the predecessor blocks.
	Preds []*Block
	// Branch, when non-nil, is the boolean condition that ends this
	// block (if/for condition). It is also the last entry of Nodes.
	Branch ast.Expr
}

// RangeHeader marks the header evaluation of a `for … range X` loop in
// a block's node list without embedding the loop body. Key and Value
// are the iteration variables (possibly nil); X is the ranged operand.
type RangeHeader struct{ R *ast.RangeStmt }

func (h *RangeHeader) Pos() token.Pos { return h.R.Pos() }
func (h *RangeHeader) End() token.Pos { return h.R.X.End() }

// SelectHeader marks a select statement in a block's node list without
// embedding the clause bodies. A select with no default clause blocks
// until one of its communications is ready.
type SelectHeader struct{ S *ast.SelectStmt }

func (h *SelectHeader) Pos() token.Pos { return h.S.Pos() }
func (h *SelectHeader) End() token.Pos { return h.S.Select + 6 }

// HasDefault reports whether the select carries a default clause (and
// therefore never blocks).
func (h *SelectHeader) HasDefault() bool {
	for _, c := range h.S.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// CFG is the control-flow graph of one function body. Nested function
// literals are not descended into; each gets its own CFG.
type CFG struct {
	// Fn is the *ast.FuncDecl or *ast.FuncLit the graph was built from.
	Fn ast.Node
	// Blocks lists every block, Entry first. Blocks unreachable from
	// Entry (e.g. code after an infinite loop) are retained but have no
	// path from Entry.
	Blocks []*Block
	// Entry is where execution starts.
	Entry *Block
	// Exit is the single synthetic exit: every return, panic and the
	// natural end of the body lead here. It holds no nodes.
	Exit *Block
	// FallOff is the block representing the natural end of the function
	// body (execution running past the last statement), or nil when the
	// body always transfers control explicitly.
	FallOff *Block

	comm     map[ast.Stmt]bool // comm statements of select clauses
	panicked map[*Block]bool   // blocks whose edge to Exit is a panic
}

// IsComm reports whether stmt is the communication operation of a
// select clause (and therefore only executes when the select chose it).
func (c *CFG) IsComm(s ast.Stmt) bool { return c.comm[s] }

// PanicExit reports whether b's edge to Exit is a panic rather than a
// return or the natural end of the body.
func (c *CFG) PanicExit(b *Block) bool { return c.panicked[b] }

// NewCFG builds the control-flow graph of fn, which must be an
// *ast.FuncDecl or *ast.FuncLit. A nil or bodyless declaration yields
// a graph with an empty entry wired straight to exit.
func NewCFG(fn ast.Node) *CFG {
	var body *ast.BlockStmt
	switch f := fn.(type) {
	case *ast.FuncDecl:
		body = f.Body
	case *ast.FuncLit:
		body = f.Body
	}
	c := &CFG{Fn: fn, comm: map[ast.Stmt]bool{}, panicked: map[*Block]bool{}}
	b := &cfgBuilder{cfg: c, labels: map[string]*labelInfo{}}
	c.Entry = b.newBlock()
	c.Exit = b.newBlock()
	b.cur = c.Entry
	if body != nil {
		b.stmtList(body.List)
	}
	// Natural end of the body: fall off into Exit.
	if b.cur != nil {
		c.FallOff = b.cur
		b.edge(b.cur, c.Exit)
	}
	b.resolveGotos()
	return c
}

// Reachable returns the set of blocks reachable from Entry.
func (c *CFG) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(b *Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(c.Entry)
	return seen
}

// CanReach reports whether to is reachable from from along CFG edges
// (from itself counts only via a cycle).
func (c *CFG) CanReach(from, to *Block) bool {
	seen := map[*Block]bool{}
	var walk func(b *Block) bool
	walk = func(b *Block) bool {
		for _, s := range b.Succs {
			if s == to {
				return true
			}
			if !seen[s] {
				seen[s] = true
				if walk(s) {
					return true
				}
			}
		}
		return false
	}
	return walk(from)
}

// labelInfo tracks one label: the block the labeled statement starts
// in (the goto/continue anchor) and, once the labeled loop or switch
// is entered, its break/continue targets.
type labelInfo struct {
	block *Block // start of the labeled statement (goto target)
	brk   *Block
	cont  *Block // nil for labeled switch/select
}

// loopFrame is one enclosing breakable construct.
type loopFrame struct {
	label string
	brk   *Block
	cont  *Block // nil for switch/select frames
}

type pendingGoto struct {
	from  *Block
	label string
}

type cfgBuilder struct {
	cfg    *CFG
	cur    *Block // nil after an unconditional control transfer
	labels map[string]*labelInfo
	frames []loopFrame
	gotos  []pendingGoto
	// pendingLabel is the label naming the next loop/switch statement,
	// consumed by the statement builder.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *cfgBuilder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// live returns the current block, materializing an unreachable
// continuation block after a return/break/goto so building can proceed
// (statements placed there simply have no path from Entry).
func (b *cfgBuilder) live() *Block {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	return b.cur
}

func (b *cfgBuilder) add(n ast.Node) { b.live().Nodes = append(b.live().Nodes, n) }

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for a loop/switch statement.
func (b *cfgBuilder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *cfgBuilder) pushFrame(label string, brk, cont *Block) {
	b.frames = append(b.frames, loopFrame{label: label, brk: brk, cont: cont})
	if label != "" {
		if li := b.labels[label]; li != nil {
			li.brk, li.cont = brk, cont
		}
	}
}

func (b *cfgBuilder) popFrame() { b.frames = b.frames[:len(b.frames)-1] }

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		// Start a fresh block so goto and labeled continue have a
		// stable anchor.
		anchor := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, anchor)
		}
		b.cur = anchor
		b.labels[s.Label.Name] = &labelInfo{block: anchor}
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.ReturnStmt:
		b.add(s)
		b.edge(b.live(), b.cfg.Exit)
		b.cur = nil

	case *ast.BranchStmt:
		b.branchStmt(s)

	case *ast.ExprStmt:
		b.add(s)
		if isPanicCall(s.X) {
			blk := b.live()
			b.edge(blk, b.cfg.Exit)
			b.cfg.panicked[blk] = true
			b.cur = nil
		}

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.live()
		cond.Nodes = append(cond.Nodes, s.Cond)
		cond.Branch = s.Cond
		then := b.newBlock()
		b.edge(cond, then)
		var els *Block
		if s.Else != nil {
			els = b.newBlock()
			b.edge(cond, els)
		}
		after := b.newBlock()
		if s.Else == nil {
			b.edge(cond, after)
		}
		b.cur = then
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, after)
		}
		if s.Else != nil {
			b.cur = els
			b.stmt(s.Else)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.cur = after

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		header := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		body := b.newBlock()
		after := b.newBlock()
		if s.Cond != nil {
			header.Nodes = append(header.Nodes, s.Cond)
			header.Branch = s.Cond
			b.edge(header, body)
			b.edge(header, after)
		} else {
			b.edge(header, body)
		}
		post := header
		if s.Post != nil {
			post = b.newBlock()
		}
		b.pushFrame(label, after, post)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, post)
		}
		if s.Post != nil {
			b.cur = post
			b.stmt(s.Post)
			if b.cur != nil {
				b.edge(b.cur, header)
			}
		}
		b.popFrame()
		b.cur = after

	case *ast.RangeStmt:
		label := b.takeLabel()
		header := b.newBlock()
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		header.Nodes = append(header.Nodes, &RangeHeader{R: s})
		body := b.newBlock()
		after := b.newBlock()
		b.edge(header, body)
		b.edge(header, after)
		b.pushFrame(label, after, header)
		b.cur = body
		b.stmtList(s.Body.List)
		if b.cur != nil {
			b.edge(b.cur, header)
		}
		b.popFrame()
		b.cur = after

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchClauses(label, s.Body.List)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchClauses(label, s.Body.List)

	case *ast.SelectStmt:
		label := b.takeLabel()
		header := b.live()
		sh := &SelectHeader{S: s}
		header.Nodes = append(header.Nodes, sh)
		after := b.newBlock()
		b.pushFrame(label, after, nil)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			blk := b.newBlock()
			b.edge(header, blk)
			b.cur = blk
			if clause.Comm != nil {
				b.cfg.comm[clause.Comm] = true
				b.stmt(clause.Comm)
			}
			b.stmtList(clause.Body)
			if b.cur != nil {
				b.edge(b.cur, after)
			}
		}
		b.popFrame()
		// A select with no clauses blocks forever: after is unreachable
		// (no edges were added to it), which models `select {}`.
		b.cur = after

	case *ast.DeclStmt, *ast.AssignStmt, *ast.IncDecStmt, *ast.SendStmt,
		*ast.GoStmt, *ast.DeferStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		if s != nil {
			b.add(s)
		}
	}
}

// switchClauses wires the case clauses of a switch/type switch: every
// clause is entered from the header, fallthrough jumps to the next
// clause body, and a missing default adds the header→after edge.
func (b *cfgBuilder) switchClauses(label string, clauses []ast.Stmt) {
	header := b.live()
	after := b.newBlock()
	b.pushFrame(label, after, nil)
	blocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		blocks[i] = b.newBlock()
		b.edge(header, blocks[i])
		if cc.(*ast.CaseClause).List == nil {
			hasDefault = true
		}
	}
	if !hasDefault {
		b.edge(header, after)
	}
	for i, cc := range clauses {
		clause := cc.(*ast.CaseClause)
		b.cur = blocks[i]
		n := len(clause.Body)
		fallsThrough := false
		if n > 0 {
			if br, ok := clause.Body[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				fallsThrough = true
			}
		}
		body := clause.Body
		if fallsThrough {
			body = body[:n-1]
		}
		b.stmtList(body)
		if b.cur != nil {
			if fallsThrough && i+1 < len(blocks) {
				b.edge(b.cur, blocks[i+1])
			} else {
				b.edge(b.cur, after)
			}
		}
	}
	b.popFrame()
	b.cur = after
}

// branchStmt handles break, continue, goto (fallthrough is consumed by
// switchClauses).
func (b *cfgBuilder) branchStmt(s *ast.BranchStmt) {
	b.add(s)
	switch s.Tok {
	case token.BREAK:
		if t := b.frameTarget(s.Label, true); t != nil {
			b.edge(b.live(), t)
		}
		b.cur = nil
	case token.CONTINUE:
		if t := b.frameTarget(s.Label, false); t != nil {
			b.edge(b.live(), t)
		}
		b.cur = nil
	case token.GOTO:
		if s.Label != nil {
			b.gotos = append(b.gotos, pendingGoto{from: b.live(), label: s.Label.Name})
		}
		b.cur = nil
	}
}

// frameTarget resolves the break/continue target, by label when given,
// else the innermost applicable frame.
func (b *cfgBuilder) frameTarget(label *ast.Ident, isBreak bool) *Block {
	if label != nil {
		li := b.labels[label.Name]
		if li == nil {
			return nil
		}
		if isBreak {
			return li.brk
		}
		return li.cont
	}
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := b.frames[i]
		if isBreak {
			return f.brk
		}
		if f.cont != nil {
			return f.cont
		}
	}
	return nil
}

// resolveGotos wires pending goto edges once every label is known.
// Gotos to labels that were never declared (ill-formed code) are
// dropped.
func (b *cfgBuilder) resolveGotos() {
	for _, g := range b.gotos {
		if li := b.labels[g.label]; li != nil {
			b.edge(g.from, li.block)
		}
	}
}

// isPanicCall reports whether e is a call to the predeclared panic.
func isPanicCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic" && id.Obj == nil
}
