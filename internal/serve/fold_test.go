package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/obs"
	"spammass/internal/pagerank"
	"spammass/internal/testutil"
)

// foldBase packages a 2k-host webgen world as the epoch-1 snapshot the
// fold tests start from, carrying its assembled good core.
func foldBase(t testing.TB) *Snapshot {
	t.Helper()
	h, core, err := testutil.SmallWeb()
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(h, realEstimates(t, h, core),
		SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: mass.DefaultOptions().Gamma, Core: core}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// foldStep produces the next batch of a sequence from the sequential
// control's current snapshot.
type foldStep func(cur *Snapshot) *delta.Batch

func churnStep(rng *rand.Rand, tag string) foldStep {
	return func(cur *Snapshot) *delta.Batch { return testutil.ChurnBatch(rng, cur.HostGraph(), tag) }
}

func fixedStep(ops ...delta.Op) foldStep {
	return func(*Snapshot) *delta.Batch { return &delta.Batch{Ops: ops} }
}

// emptyCoreStep removes every core host: the batch applies as a graph
// mutation but must be refused, since it leaves no Ṽ⁺ to estimate from.
func emptyCoreStep(cur *Snapshot) *delta.Batch {
	b := &delta.Batch{}
	for _, x := range cur.Core() {
		b.Ops = append(b.Ops, delta.RemoveHostOp(cur.HostGraph().Names[x]))
	}
	return b
}

// runFoldEquivalence drives steps through the sequential builder (one
// apply, solve and snapshot per batch, failures logged-and-skipped the
// way the live loop does) and then the same batches through one fold
// with a single solve, and holds the fold to the sequential outcome,
// including the delta.* counters both paths feed. It returns the
// indices both paths skipped and the fold's snapshot (nil when nothing
// staged).
func runFoldEquivalence(t *testing.T, base *Snapshot, steps []foldStep) ([]int, *Snapshot) {
	t.Helper()
	ctx := context.Background()
	// The 1e-9 below is in the records' scaled n/(1−c) units, 1.3e4× the
	// solver's own; ε = 1e-14 puts both paths well inside it.
	solver := pagerank.DefaultConfig()
	solver.Epsilon = 1e-14
	seqReg, foldReg := obs.NewRegistry(), obs.NewRegistry()
	apply := NewDeltaBuilder(DeltaBuilderConfig{Solver: solver, Obs: obs.NewContext(seqReg, nil)})

	control := base
	var batches []*delta.Batch
	var seqSkipped []int
	everRemoved := make(map[string]bool)
	for i, step := range steps {
		b := step(control)
		batches = append(batches, b)
		next, err := apply(ctx, control, control.Epoch()+1, b)
		if err != nil {
			seqSkipped = append(seqSkipped, i)
			continue
		}
		control = next
		for _, op := range b.Ops {
			if op.Kind == delta.RemoveHost {
				everRemoved[op.Src] = true
			}
		}
	}

	fold := NewDeltaFold(base)
	var foldSkipped []int
	for i, b := range batches {
		if err := fold.Stage(b); err != nil {
			foldSkipped = append(foldSkipped, i)
		}
	}
	if !reflect.DeepEqual(foldSkipped, seqSkipped) {
		t.Fatalf("fold skipped batches %v, sequential skipped %v", foldSkipped, seqSkipped)
	}
	if fold.staged == 0 {
		if control != base {
			t.Fatal("nothing staged but the sequential control advanced")
		}
		return seqSkipped, nil
	}
	got, err := fold.Solve(ctx, DeltaBuilderConfig{Solver: solver, Obs: obs.NewContext(foldReg, nil)}, base.Epoch()+int64(fold.staged))
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	assertEquivalent(t, got, control)
	for _, name := range []string{"delta.batches_total", "delta.applied_edges_total", "delta.hosts_added_total", "delta.hosts_removed_total"} {
		if g, w := foldReg.Counter(name).Value(), seqReg.Counter(name).Value(); g != w {
			t.Fatalf("%s: fold %d, sequential %d", name, g, w)
		}
	}
	if g, w := foldReg.Counter("delta.merges_total").Value(), seqReg.Counter("delta.merges_total").Value(); g != 1 || w != int64(fold.staged) {
		t.Fatalf("delta.merges_total: fold %d, sequential %d; want 1 and %d", g, w, fold.staged)
	}

	// The fold's remap is the name match between base and final graph,
	// except that a name removed along the way stays removed: a re-added
	// host is a new host, seeded cold like any other.
	res, err := fold.fold.Apply()
	if err != nil {
		t.Fatal(err)
	}
	for old, name := range base.HostGraph().Names {
		want := int64(-1)
		if x, ok := control.HostGraph().NodeByName(name); ok && !everRemoved[name] {
			want = int64(x)
		}
		if res.Remap[old] != want {
			t.Fatalf("remap[%d] (%s) = %d, want %d", old, name, res.Remap[old], want)
		}
	}
	return seqSkipped, got
}

// assertEquivalent holds got to want: same hosts, graph, core and epoch,
// every record field within the solver tolerance, every label equal.
func assertEquivalent(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("epoch %d, want %d", got.Epoch(), want.Epoch())
	}
	if !reflect.DeepEqual(got.HostGraph().Names, want.HostGraph().Names) {
		t.Fatal("host sets differ")
	}
	if !got.HostGraph().Graph.Equal(want.HostGraph().Graph) {
		t.Fatal("graphs differ")
	}
	if !reflect.DeepEqual(got.Core(), want.Core()) {
		t.Fatalf("core %v, want %v", got.Core(), want.Core())
	}
	const tol = 1e-9
	for x := 0; x < want.NumHosts(); x++ {
		w, _ := want.LookupNode(graph.NodeID(x))
		g, _ := got.LookupNode(graph.NodeID(x))
		if g.Host != w.Host || g.Node != w.Node || g.Label != w.Label || g.Evaluated != w.Evaluated || g.Epoch != w.Epoch ||
			math.Abs(g.PageRank-w.PageRank) > tol || math.Abs(g.CorePageRank-w.CorePageRank) > tol ||
			math.Abs(g.AbsMass-w.AbsMass) > tol || math.Abs(g.RelMass-w.RelMass) > tol {
			t.Fatalf("node %d: fold %+v, sequential %+v", x, g, w)
		}
	}
}

// TestFoldEquivalenceScripted walks one 17-batch sequence through every
// cross-batch interaction the fold must get right.
func TestFoldEquivalenceScripted(t *testing.T) {
	base := foldBase(t)
	names := base.HostGraph().Names
	inCore := make(map[graph.NodeID]bool)
	for _, x := range base.Core() {
		inCore[x] = true
	}
	// Three distinct non-core hosts to script against.
	var pick []string
	for x := 700; len(pick) < 3; x++ {
		if !inCore[graph.NodeID(x)] {
			pick = append(pick, names[x])
		}
	}
	victim, a, b := pick[0], pick[1], pick[2]
	coreHost := names[base.Core()[0]]
	ax, _ := base.HostGraph().NodeByName(a)
	bx, _ := base.HostGraph().NodeByName(b)
	if base.HostGraph().Graph.HasEdge(ax, bx) {
		t.Fatalf("fixture edge %s → %s already exists", a, b)
	}
	rng := rand.New(rand.NewSource(24))
	steps := []foldStep{
		churnStep(rng, "s0"),
		// A host added here and removed in batch 6 never reaches the final graph.
		fixedStep(delta.AddHostOp("ephemeral.example"), delta.AddEdgeOp(a, "ephemeral.example"), delta.AddEdgeOp("ephemeral.example", b)),
		fixedStep(delta.AddHostOp(names[0])), // poison: the host exists
		fixedStep(delta.RemoveHostOp(victim)),
		fixedStep(delta.AddEdgeOp(a, b)),
		churnStep(rng, "s5"),
		fixedStep(delta.RemoveHostOp("ephemeral.example")),
		emptyCoreStep,
		// Re-adding a removed name is legal across batches…
		fixedStep(delta.AddHostOp(victim), delta.AddEdgeOp(victim, a)),
		fixedStep(delta.RemoveEdgeOp(a, b)),
		churnStep(rng, "s10"),
		// …and a conflict inside one.
		fixedStep(delta.RemoveHostOp(b), delta.AddHostOp(b)),
		// A host created implicitly by an edge, then one created by +h a
		// batch later: both take IDs in creation order.
		fixedStep(delta.AddEdgeOp(a, "implicit.example")),
		fixedStep(delta.AddHostOp("explicit.example"), delta.AddEdgeOp("explicit.example", "implicit.example")),
		// The edge added in batch 4 and removed in batch 9 comes back.
		fixedStep(delta.AddEdgeOp(a, b)),
		// A core host removed and its name re-added is a new, non-core host.
		fixedStep(delta.RemoveHostOp(coreHost)),
		fixedStep(delta.AddHostOp(coreHost), delta.AddEdgeOp(coreHost, a)),
	}
	skipped, got := runFoldEquivalence(t, base, steps)
	if want := []int{2, 7, 11}; !reflect.DeepEqual(skipped, want) {
		t.Fatalf("skipped batches %v, want %v (a churn batch hit a scripted host?)", skipped, want)
	}
	x, ok := got.HostGraph().NodeByName(coreHost)
	if !ok {
		t.Fatalf("re-added %s missing", coreHost)
	}
	for _, c := range got.Core() {
		if c == x {
			t.Fatalf("re-added %s rejoined the core", coreHost)
		}
	}
	ix, _ := got.HostGraph().NodeByName("implicit.example")
	ex, _ := got.HostGraph().NodeByName("explicit.example")
	if ex != ix+1 || x <= ex {
		t.Fatalf("created hosts numbered implicit %d, explicit %d, re-added %d; want creation order", ix, ex, x)
	}
}

// TestFoldEquivalenceRandom: seeded random sequences of every length
// 1–12, mixing churn with poison batches, removal of hosts an earlier
// batch created, and re-adds of names an earlier batch removed.
func TestFoldEquivalenceRandom(t *testing.T) {
	base := foldBase(t)
	baseN := base.NumHosts()
	for length := 1; length <= 12; length++ {
		rng := rand.New(rand.NewSource(int64(length)))
		var removed []string
		steps := make([]foldStep, length)
		for i := range steps {
			i := i
			steps[i] = func(cur *Snapshot) *delta.Batch {
				h := cur.HostGraph()
				var b *delta.Batch
				switch r := rng.Intn(10); {
				case r == 0:
					b = &delta.Batch{Ops: []delta.Op{delta.AddHostOp(h.Names[rng.Intn(len(h.Names))])}}
				case r == 1 && len(h.Names) > baseN:
					// Hosts past the base's count were created by this sequence
					// (or survived from it); remove the last one.
					b = &delta.Batch{Ops: []delta.Op{delta.RemoveHostOp(h.Names[len(h.Names)-1])}}
				case r == 2 && len(removed) > 0:
					name := removed[rng.Intn(len(removed))]
					b = &delta.Batch{Ops: []delta.Op{delta.AddHostOp(name), delta.AddEdgeOp(h.Names[0], name)}}
				default:
					b = testutil.ChurnBatch(rng, h, fmt.Sprintf("l%d-%d", length, i))
				}
				for _, op := range b.Ops {
					if op.Kind == delta.RemoveHost {
						removed = append(removed, op.Src)
					}
				}
				return b
			}
		}
		t.Run(fmt.Sprintf("len%d", length), func(t *testing.T) { runFoldEquivalence(t, base, steps) })
	}
}

// TestFoldAllPoison: a fold whose every batch fails stages nothing and
// stays on the base graph and core.
func TestFoldAllPoison(t *testing.T) {
	base := foldBase(t)
	poison := fixedStep(delta.AddHostOp(base.HostGraph().Names[0]))
	skipped, _ := runFoldEquivalence(t, base, []foldStep{poison, emptyCoreStep, poison})
	if len(skipped) != 3 {
		t.Fatalf("skipped %v, want all three", skipped)
	}
}

// TestFoldSolveHonorsContext: a cancelled context stops the fold before
// the solve.
func TestFoldSolveHonorsContext(t *testing.T) {
	base := foldBase(t)
	fold := NewDeltaFold(base)
	if err := fold.Stage(testutil.ChurnBatch(rand.New(rand.NewSource(1)), base.HostGraph(), "c")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := fold.Solve(ctx, DeltaBuilderConfig{Solver: pagerank.DefaultConfig()}, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("Solve under a cancelled context: %v, want context.Canceled", err)
	}
}

// TestFoldCorelessBase: a base snapshot that carries no core refuses
// every batch, and the error says what the delta path needs.
func TestFoldCorelessBase(t *testing.T) {
	h, core, err := testutil.SmallWeb()
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewSnapshot(h, realEstimates(t, h, core), SnapshotConfig{Detect: mass.DefaultDetectConfig(), Gamma: mass.DefaultOptions().Gamma}, 1)
	if err != nil {
		t.Fatal(err)
	}
	err = NewDeltaFold(base).Stage(&delta.Batch{Ops: []delta.Op{delta.AddHostOp("new.example")}})
	if err == nil || !strings.Contains(err.Error(), "SnapshotConfig.Core") {
		t.Fatalf("Stage on a coreless base: %v, want the SnapshotConfig.Core hint", err)
	}
}

// TestFoldEmptiedCore: with a core carried, the batch that would remove
// its last hosts is refused with its own message, not the missing-core
// hint, and leaves the fold untouched.
func TestFoldEmptiedCore(t *testing.T) {
	base := foldBase(t)
	fold := NewDeltaFold(base)
	err := fold.Stage(emptyCoreStep(base))
	if err == nil || strings.Contains(err.Error(), "SnapshotConfig.Core") ||
		!strings.Contains(err.Error(), fmt.Sprintf("removes the last %d good-core hosts", len(base.Core()))) {
		t.Fatalf("Stage emptying the core: %v, want the emptied-core message", err)
	}
	if fold.staged != 0 || len(fold.core) != len(base.Core()) {
		t.Fatalf("refused batch changed the fold: %d staged, %d core hosts left", fold.staged, len(fold.core))
	}
}
