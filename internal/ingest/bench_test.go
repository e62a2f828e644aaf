package ingest

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spammass/internal/obs"
)

// BenchmarkWALAppend times durable appends (Append: write, then
// WaitDurable) on a real segment from 1, 8 and 64 concurrent
// submitters, with no group-commit window and with a 2 ms one. It
// reports appends/s across all submitters and fsyncs/append, the share
// of an fsync each acknowledged batch paid: 1 means every append synced
// alone, less means waiters shared the leader's fsync. bench/ measures
// the same path at 8 submitters (ingest.append_c8_*); this is the
// figure at 1 and 64 that decides whether the window earns its keep.
func BenchmarkWALAppend(b *testing.B) {
	for _, submitters := range []int{1, 8, 64} {
		for _, window := range []time.Duration{0, 2 * time.Millisecond} {
			b.Run(fmt.Sprintf("submitters=%d/window=%s", submitters, window), func(b *testing.B) {
				reg := obs.NewRegistry()
				w, err := OpenWAL(b.TempDir(), WALConfig{GroupCommit: window, Obs: obs.NewContext(reg, nil)})
				if err != nil {
					b.Fatalf("OpenWAL: %v", err)
				}
				defer w.Close()
				batch := testBatch(1)
				var next atomic.Int64
				var wg sync.WaitGroup
				b.ResetTimer()
				start := time.Now()
				for range submitters {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for next.Add(1) <= int64(b.N) {
							if _, err := w.Append(batch); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				elapsed := time.Since(start)
				b.StopTimer()
				b.ReportMetric(float64(b.N)/elapsed.Seconds(), "appends/s")
				b.ReportMetric(float64(reg.Counter("ingest.wal_fsyncs_total").Value())/float64(b.N), "fsyncs/append")
			})
		}
	}
}
