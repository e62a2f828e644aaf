package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"spammass/internal/delta"
	"spammass/internal/graph"
	"spammass/internal/mass"
	"spammass/internal/pagerank"
	"spammass/internal/serve"
	"spammass/internal/testutil"
)

// benchBase builds the 10k-host snapshot the ingest benchmarks run
// against, matching the serve and delta benchmark corpus.
func benchBase(b *testing.B) *serve.Snapshot {
	b.Helper()
	const n = 10000
	rng := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(rng, n, 8)
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("host%05d.example", i)
	}
	h, err := graph.NewHostGraph(g, names)
	if err != nil {
		b.Fatal(err)
	}
	core := make([]graph.NodeID, n/150)
	for i := range core {
		core[i] = graph.NodeID(i * 150)
	}
	est, err := mass.EstimateFromCore(g, core, mass.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	snap, err := serve.NewSnapshot(h, est, serve.SnapshotConfig{
		Detect: mass.DefaultDetectConfig(), Gamma: 0.85, CoreSize: len(core), Core: core,
	}, 1)
	if err != nil {
		b.Fatal(err)
	}
	return snap
}

// benchChurnBatch is a realistic churn unit against the 10k corpus:
// one new host cross-linked with four existing hosts.
func benchChurnBatch(i int) *delta.Batch {
	name := fmt.Sprintf("bench%06d.example", i)
	ops := []delta.Op{delta.AddHostOp(name)}
	for k := 0; k < 2; k++ {
		ops = append(ops,
			delta.AddEdgeOp(fmt.Sprintf("host%05d.example", (i*7+k*131)%10000), name),
			delta.AddEdgeOp(name, fmt.Sprintf("host%05d.example", (i*13+k*257)%10000)))
	}
	return &delta.Batch{Ops: ops}
}

// BenchmarkIngestThroughput measures durable append throughput — the
// rate at which /admin/delta can acknowledge batches — in the two
// fsync disciplines: one fsync per append, and leader-elected group
// commit amortizing the fsync over concurrent submitters.
func BenchmarkIngestThroughput(b *testing.B) {
	run := func(b *testing.B, gc time.Duration) {
		pl, err := Open(Config{Dir: b.TempDir(), GroupCommit: gc})
		if err != nil {
			b.Fatal(err)
		}
		defer pl.Close()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			i := 0
			for pb.Next() {
				if _, err := pl.Append(benchChurnBatch(i)); err != nil {
					b.Error(err)
					return
				}
				i++
			}
		})
		b.StopTimer()
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "batches/s")
	}
	b.Run("fsync-each", func(b *testing.B) { run(b, 0) })
	b.Run("group-commit", func(b *testing.B) { run(b, 500*time.Microsecond) })
}

// BenchmarkRecoveryReplay measures the boot path — load the persisted
// snapshot, fold the WAL suffix, solve once — for suffixes of 1, 10 and
// 50 churn batches over the 10k graph. The slope between them is one
// delta.Apply merge pass per batch; the intercept is the snapshot load
// plus the single warm solve and snapshot build.
func BenchmarkRecoveryReplay(b *testing.B) {
	base := benchBase(b)
	for _, suffix := range []int{1, 10, 50} {
		b.Run(fmt.Sprintf("suffix%d", suffix), func(b *testing.B) { benchRecovery(b, base, suffix) })
	}
}

func benchRecovery(b *testing.B, base *serve.Snapshot, suffix int) {
	dir := b.TempDir()
	ctx := context.Background()

	// Seed the directory once: snapshot at seq 0, then a WAL suffix the
	// recovery must replay.
	if _, err := WriteSnapshotFile(dir, SnapshotStateOf(base, 0)); err != nil {
		b.Fatal(err)
	}
	seed, err := Open(Config{Dir: dir})
	if err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= suffix; i++ {
		if _, err := seed.Append(benchChurnBatch(i)); err != nil {
			b.Fatal(err)
		}
	}
	seed.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl, err := Open(Config{Dir: dir})
		if err != nil {
			b.Fatal(err)
		}
		snap, seq, err := pl.Latest(base.Config().Detect, 0)
		if err != nil || snap == nil {
			b.Fatalf("Latest: (%v, %v)", snap, err)
		}
		recovered, applied, err := pl.Recover(ctx, snap, seq, pagerank.DefaultConfig())
		if err != nil {
			b.Fatal(err)
		}
		if applied != suffix || recovered.NumHosts() != base.NumHosts()+suffix {
			b.Fatalf("recovered %d batches to %d hosts", applied, recovered.NumHosts())
		}
		pl.Close()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.N*suffix)/b.Elapsed().Seconds(), "batches/s")
}
