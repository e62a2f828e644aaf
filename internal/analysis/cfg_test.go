package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parseFuncs parses src (a complete file body without the package
// clause) and returns the file's function declarations by name.
func parseFuncs(t *testing.T, src string) (*token.FileSet, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "test.go", "package p\n"+src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	decls := map[string]*ast.FuncDecl{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			decls[fd.Name.Name] = fd
		}
	}
	return fset, decls
}

// findNode locates the first node of type N in the CFG's blocks,
// returning its block.
func findNode[N ast.Node](c *CFG) (N, *Block) {
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if m, ok := n.(N); ok {
				return m, b
			}
		}
	}
	var zero N
	return zero, nil
}

func TestCFGReturnAndFallOff(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(x bool) int {
	if x {
		return 1
	}
	x = false
	return 0
}
func g(x bool) {
	if x {
		return
	}
	x = false
}`)
	c := NewCFG(decls["f"])
	if c.FallOff != nil {
		t.Errorf("f ends in returns on every path; FallOff should be nil, got block %d", c.FallOff.Index)
	}
	if !c.CanReach(c.Entry, c.Exit) {
		t.Error("f: exit must be reachable")
	}
	c = NewCFG(decls["g"])
	if c.FallOff == nil {
		t.Fatal("g falls off the end of its body; FallOff must be set")
	}
	if !c.Reachable()[c.FallOff] {
		t.Error("g: FallOff must be reachable from entry")
	}
}

func TestCFGDeferStaysInline(t *testing.T) {
	_, decls := parseFuncs(t, `
func f() {
	defer cleanup()
	work()
}
func cleanup() {}
func work()    {}`)
	c := NewCFG(decls["f"])
	d, blk := findNode[*ast.DeferStmt](c)
	if d == nil || blk == nil {
		t.Fatal("defer statement not recorded in any block")
	}
	// The defer and the following call share the straight-line block,
	// in source order, so transfer functions see registration order.
	if len(blk.Nodes) < 2 {
		t.Fatalf("defer's block has %d nodes, want the defer and the call", len(blk.Nodes))
	}
	if blk.Nodes[0] != ast.Node(d) {
		t.Error("defer must precede the call in its block")
	}
}

func TestCFGLabeledBreak(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(ch chan int) {
outer:
	for {
		for {
			select {
			case v := <-ch:
				if v == 0 {
					break outer
				}
			}
		}
	}
}`)
	c := NewCFG(decls["f"])
	// Without the labeled break resolving to the OUTER loop's after
	// block, the nested infinite loops would trap every path.
	if !c.CanReach(c.Entry, c.Exit) {
		t.Error("break outer must create a path out of the nested loops")
	}
}

func TestCFGUnlabeledBreakInnerOnly(t *testing.T) {
	_, decls := parseFuncs(t, `
func f() {
	for {
		for {
			break
		}
	}
}`)
	c := NewCFG(decls["f"])
	// The unlabeled break only exits the inner loop; the outer one
	// still spins forever.
	if c.CanReach(c.Entry, c.Exit) {
		t.Error("unlabeled break must not exit the outer loop")
	}
}

func TestCFGGoto(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(x bool) {
	if x {
		goto done
	}
	for {
	}
done:
	cleanup()
}
func cleanup() {}`)
	c := NewCFG(decls["f"])
	if !c.CanReach(c.Entry, c.Exit) {
		t.Error("goto done must bypass the infinite loop")
	}
	// The goto's edge lands on the labeled anchor block, which holds
	// the cleanup call.
	call, blk := findNode[*ast.ExprStmt](c)
	if call == nil {
		t.Fatal("cleanup call not found")
	}
	if !c.Reachable()[blk] {
		t.Error("the labeled block must be reachable via the goto")
	}
}

func TestCFGPanicEdge(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(x bool) int {
	if x {
		panic("bad")
	}
	return 1
}`)
	c := NewCFG(decls["f"])
	var panicBlk *Block
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicCall(es.X) {
				panicBlk = b
			}
		}
	}
	if panicBlk == nil {
		t.Fatal("panic statement not recorded")
	}
	if !c.PanicExit(panicBlk) {
		t.Error("the panic block's exit edge must be marked as a panic")
	}
	found := false
	for _, s := range panicBlk.Succs {
		if s == c.Exit {
			found = true
		}
	}
	if !found {
		t.Error("panic must edge to Exit (unwinding leaves the function)")
	}
}

func TestCFGInfiniteLoopTrapsExit(t *testing.T) {
	_, decls := parseFuncs(t, `
func f() {
	for {
	}
}
func g() {
	select {}
}`)
	for _, name := range []string{"f", "g"} {
		c := NewCFG(decls[name])
		if c.CanReach(c.Entry, c.Exit) {
			t.Errorf("%s: exit must be unreachable past an infinite loop", name)
		}
	}
}

func TestCFGSwitchFallthrough(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(x int) int {
	switch x {
	case 1:
		fallthrough
	case 2:
		return 2
	}
	return 0
}`)
	c := NewCFG(decls["f"])
	if !c.CanReach(c.Entry, c.Exit) {
		t.Error("exit must be reachable")
	}
	// Both returns reachable: case 1 falls through into case 2's body.
	returns := 0
	reach := c.Reachable()
	for _, b := range c.Blocks {
		if !reach[b] {
			continue
		}
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 2 {
		t.Errorf("want both returns reachable, got %d", returns)
	}
}

func TestCFGSelectHeader(t *testing.T) {
	_, decls := parseFuncs(t, `
func f(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case <-b:
	default:
	}
	return 0
}`)
	c := NewCFG(decls["f"])
	h, _ := findNode[*SelectHeader](c)
	if h == nil {
		t.Fatal("select header not recorded")
	}
	if !h.HasDefault() {
		t.Error("select has a default clause")
	}
	// The comm statements are marked so analyzers can tell them from
	// ordinary statements.
	comms := 0
	for _, b := range c.Blocks {
		for _, n := range b.Nodes {
			if s, ok := n.(ast.Stmt); ok && c.IsComm(s) {
				comms++
			}
		}
	}
	if comms != 2 {
		t.Errorf("want 2 comm statements marked, got %d", comms)
	}
}
