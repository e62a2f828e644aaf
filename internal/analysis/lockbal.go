package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// LockBal verifies mutex discipline on the shared CFG, per function:
//
//   - every sync.Mutex/RWMutex Lock (and RLock) reaches a matching
//     Unlock (RUnlock) on every return path, defer-aware;
//   - no lock is acquired twice on a path without an intervening
//     unlock (self-deadlock);
//   - no lock is held across a blocking operation: a channel send or
//     receive, a select without a default clause, an http.Client
//     round-trip, or a pagerank.Engine solve (Solve, SolveConfig,
//     SolveMany, SolveManyConfig, Refine) — the serving tier's
//     publish/refresh locks must never wait on I/O or a solver.
//
// The analysis is intra-procedural and tracks locks by receiver path
// ("r.mu", "s.store.mu"); locks reached through map indexing or call
// results are skipped rather than mis-tracked. `mu.TryLock()` used as
// a branch condition refines only the true edge to "held". An explicit
// Unlock ahead of a deferred one releases the lock but keeps the
// defer, so the unlock/wait/relock of a group-commit leader is clean.
var LockBal = &Analyzer{
	Name: "lockbal",
	Doc:  "mutex not unlocked on every path, locked twice, or held across a blocking call",
	Run:  runLockBal,
}

// lockState is the per-path state of the tracked locks: key → how the
// lock is held. Maps are treated as immutable; transfer clones.
type lockState map[string]lockMode

type lockMode uint8

const (
	lockHeld     lockMode = 1 << iota // locked, needs explicit unlock
	lockDeferred                      // locked, unlock deferred to exit
	lockReleased                      // not held, unlock still deferred to exit
)

// locked is the mode after a Lock from mode m: relocking a lock whose
// unlock is still deferred puts it back under that defer.
func (m lockMode) locked() lockMode {
	if m == lockReleased {
		return lockDeferred
	}
	return lockHeld
}

func (s lockState) clone() lockState {
	out := make(lockState, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

func (s lockState) equal(o lockState) bool {
	if len(s) != len(o) {
		return false
	}
	for k, v := range s {
		if o[k] != v {
			return false
		}
	}
	return true
}

// mergeLockStates joins two paths: a lock held on either side stays
// held (conservative — the obligation survives), with the deferred bit
// kept only when both sides carry a deferred unlock.
func mergeLockStates(a, b lockState) lockState {
	out := make(lockState, len(a)+len(b))
	for k, v := range a {
		out[k] = v
	}
	for k, v := range b {
		prev, ok := out[k]
		switch {
		case !ok || prev == v:
			out[k] = v
		case prev&(lockDeferred|lockReleased) != 0 && v&(lockDeferred|lockReleased) != 0:
			out[k] = lockDeferred
		default:
			out[k] = lockHeld
		}
	}
	return out
}

// lockOp classifies one call as a lock-set mutation.
type lockOp struct {
	key     string // "r.mu" + "/r" suffix for read locks
	display string // "r.mu" or "r.mu (RLock)" for diagnostics
	acquire bool
	try     bool
}

func runLockBal(pass *Pass) {
	forEachFunc(pass, func(fn ast.Node, body *ast.BlockStmt) {
		checkLocksIn(pass, fn, body)
	})
}

// classifyLockCall recognizes Lock/Unlock/RLock/RUnlock/TryLock/
// TryRLock calls on sync.Mutex and sync.RWMutex receivers (including
// embedded promotions) with a trackable receiver path.
func classifyLockCall(pass *Pass, call *ast.CallExpr) (lockOp, bool) {
	name, recv, recvType, ok := methodOn(pass.Info, call)
	if !ok {
		return lockOp{}, false
	}
	if !namedIn(recvType, "sync", "Mutex") && !namedIn(recvType, "sync", "RWMutex") {
		return lockOp{}, false
	}
	path := exprPath(recv)
	if path == "" {
		return lockOp{}, false
	}
	op := lockOp{key: path, display: path}
	switch name {
	case "Lock":
		op.acquire = true
	case "Unlock":
	case "TryLock":
		op.acquire, op.try = true, true
	case "RLock":
		op.acquire = true
		op.key += "/r"
		op.display += " (RLock)"
	case "RUnlock":
		op.key += "/r"
		op.display += " (RLock)"
	case "TryRLock":
		op.acquire, op.try = true, true
		op.key += "/r"
		op.display += " (RLock)"
	default:
		return lockOp{}, false
	}
	return op, true
}

func checkLocksIn(pass *Pass, fn ast.Node, body *ast.BlockStmt) {
	// Screen: skip the dataflow entirely for functions without lock
	// calls (the overwhelmingly common case).
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok && n != fn {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, isLock := classifyLockCall(pass, call); isLock {
				found = true
			}
		}
		return !found
	})
	if !found {
		return
	}

	fi := pass.FuncInfo(fn)
	cfg := fi.CFG
	lb := &lockChecker{pass: pass, cfg: cfg}
	res := ForwardSolve(cfg, FlowProblem[lockState]{
		Entry: lockState{},
		Transfer: func(b *Block, in lockState) lockState {
			st := in.clone()
			for _, n := range b.Nodes {
				lb.step(n, st, nil)
			}
			return st
		},
		Edge:  lb.refineEdge,
		Merge: mergeLockStates,
		Equal: func(a, b lockState) bool { return a.equal(b) },
	})

	// Replay reachable blocks with reporting enabled. Diagnostics are
	// deduplicated per (position, message) since a block may be
	// replayed once per fixpoint but reported once.
	reported := map[string]bool{}
	report := func(pos ast.Node, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := pass.Fset.Position(pos.Pos()).String() + msg
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos.Pos(), "%s", msg)
	}
	for _, b := range cfg.Blocks {
		in, reachable := res.In[b]
		if !reachable {
			continue
		}
		st := in.clone()
		for _, n := range b.Nodes {
			lb.step(n, st, report)
		}
	}
	// The natural end of the body must not hold any lock either (a
	// function falling off its last statement with a lock held is the
	// same leak as an early return).
	if fo := cfg.FallOff; fo != nil {
		if out, ok := res.Out[fo]; ok {
			var keys []string
			for k, mode := range out {
				if mode&lockHeld != 0 && mode&lockDeferred == 0 {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				report(body, "%s is still locked when the function falls off the end of its body", displayOf(k))
			}
		}
	}
}

// displayOf reverses the "/r" key suffix for diagnostics.
func displayOf(key string) string {
	if len(key) > 2 && key[len(key)-2:] == "/r" {
		return key[:len(key)-2] + " (RLock)"
	}
	return key
}

type lockChecker struct {
	pass *Pass
	cfg  *CFG
}

// step interprets one block node, mutating st in place. When report is
// non-nil the replay is authoritative and diagnostics are emitted.
func (lb *lockChecker) step(n ast.Node, st lockState, report func(ast.Node, string, ...any)) {
	switch n := n.(type) {
	case *ast.DeferStmt:
		if op, ok := classifyLockCall(lb.pass, n.Call); ok && !op.acquire {
			// defer mu.Unlock(): the obligation is discharged at every
			// exit from here on.
			if st[op.key]&lockHeld != 0 {
				st[op.key] = lockDeferred
			}
		}
		return
	case *ast.ExprStmt:
		call, ok := ast.Unparen(n.X).(*ast.CallExpr)
		if !ok {
			lb.checkBlocking(n, st, report)
			return
		}
		if op, ok := classifyLockCall(lb.pass, call); ok {
			if op.acquire && !op.try {
				if report != nil && st[op.key]&lockHeld != 0 && st[op.key]&lockDeferred == 0 {
					report(n, "%s is locked twice on this path with no unlock between (self-deadlock)", op.display)
				}
				st[op.key] = st[op.key].locked()
			} else if !op.acquire {
				if st[op.key]&(lockDeferred|lockReleased) != 0 {
					st[op.key] = lockReleased
				} else {
					delete(st, op.key)
				}
			}
			return
		}
		lb.checkBlocking(n, st, report)
		return
	case *ast.ReturnStmt:
		if report != nil {
			var keys []string
			for k, mode := range st {
				if mode&lockHeld != 0 && mode&lockDeferred == 0 {
					keys = append(keys, k)
				}
			}
			sort.Strings(keys)
			for _, k := range keys {
				report(n, "%s is still locked on this return path; unlock it before returning or use defer", displayOf(k))
			}
		}
		return
	}
	lb.checkBlocking(n, st, report)
}

// refineEdge specializes `if mu.TryLock() { … }`: the lock is held
// only on the true edge.
func (lb *lockChecker) refineEdge(b *Block, succ int, out lockState) lockState {
	if b.Branch == nil {
		return out
	}
	call, ok := ast.Unparen(b.Branch).(*ast.CallExpr)
	if !ok {
		return out
	}
	op, ok := classifyLockCall(lb.pass, call)
	if !ok || !op.try {
		return out
	}
	if succ != 0 {
		return out // a failed TryLock changes nothing
	}
	refined := out.clone()
	refined[op.key] = out[op.key].locked()
	return refined
}

// checkBlocking reports any tracked lock held across a blocking
// operation found in n's own expressions (nested function literals are
// not descended into — they run later, without the lock necessarily
// held).
func (lb *lockChecker) checkBlocking(n ast.Node, st lockState, report func(ast.Node, string, ...any)) {
	// A deferred unlock still holds the lock until the function exits,
	// so every key counts here except one released ahead of its defer.
	if report == nil || len(st) == 0 {
		return
	}
	desc, site := lb.findBlocking(n)
	if desc == "" {
		return
	}
	keys := make([]string, 0, len(st))
	for k, mode := range st {
		if mode != lockReleased {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		report(site, "%s is held across %s; a blocked holder stalls every contender", displayOf(k), desc)
	}
}

// findBlocking locates the first blocking operation in n's own
// subtree: channel send/receive (outside select comms), select without
// default, http.Client round-trips, pagerank.Engine solves.
func (lb *lockChecker) findBlocking(n ast.Node) (desc string, site ast.Node) {
	switch h := n.(type) {
	case *SelectHeader:
		if !h.HasDefault() {
			return "a select with no default clause", h.S
		}
		return "", nil
	case *RangeHeader:
		// Ranging over a channel blocks between elements.
		if t := lb.pass.TypeOf(h.R.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan {
				return "a range over a channel", h.R
			}
		}
		return "", nil
	}
	if stmt, ok := n.(ast.Stmt); ok && lb.cfg.IsComm(stmt) {
		// The comm op of a select clause only runs once chosen; the
		// select header already accounted for the blocking.
		return "", nil
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if desc != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			desc, site = "a channel send", m
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				desc, site = "a channel receive", m
				return false
			}
		case *ast.CallExpr:
			if d := lb.blockingCall(m); d != "" {
				desc, site = d, m
				return false
			}
		}
		return true
	})
	return desc, site
}

// blockingCall names calls that block by contract: http.Client
// round-trips and pagerank.Engine solver entry points.
func (lb *lockChecker) blockingCall(call *ast.CallExpr) string {
	name, _, recvType, ok := methodOn(lb.pass.Info, call)
	if !ok {
		return ""
	}
	if namedIn(recvType, "net/http", "Client") {
		switch name {
		case "Do", "Get", "Post", "PostForm", "Head", "CloseIdleConnections":
			return "an http.Client round-trip (" + name + ")"
		}
	}
	if namedIn(recvType, "internal/pagerank", "Engine") {
		switch name {
		case "Solve", "SolveConfig", "SolveMany", "SolveManyConfig", "Refine":
			return "a pagerank.Engine solve (" + name + ")"
		}
	}
	return ""
}
