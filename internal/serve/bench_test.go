package serve

import (
	"context"
	"testing"
)

var (
	sinkSnapshot *Snapshot
	sinkRecord   HostRecord
	sinkRecords  []HostRecord
	sinkBatch    *BatchResponse
)

// BenchmarkSnapshot times the snapshot's own share of a publish and of
// each /v1 answer on the 100k world, below HTTP and JSON: NewSnapshot, a
// name lookup, a 64-host batch through the store backend, and the first
// 100 of a ranking. Run it with -benchmem; allocs/op is exact.
func BenchmarkSnapshot(b *testing.B) {
	w := webFixture(b)
	names := w.hosts.Names
	b.Run("NewSnapshot", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkSnapshot = w.snapshot(b, 1)
		}
	})
	snap := w.snapshot(b, 1)
	b.Run("Lookup", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkRecord, _ = snap.Lookup(names[(i*7919)%len(names)])
		}
	})
	store := NewStore()
	if err := store.Publish(snap); err != nil {
		b.Fatal(err)
	}
	backend := NewStoreBackend(store)
	batch := make([]string, 64)
	b.Run("Batch64", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for j := range batch {
				batch[j] = names[((i*64+j)*7919)%len(names)]
			}
			var err error
			if sinkBatch, err = backend.Batch(context.Background(), batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	metrics := []string{MetricRelMass, MetricAbsMass, MetricPageRank}
	b.Run("Top100", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var err error
			if sinkRecords, err = snap.Top(metrics[i%len(metrics)], 100); err != nil {
				b.Fatal(err)
			}
		}
	})
}
