package serve

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"
)

// BenchmarkCoalescedExecute measures the amortized cost of the coalesced
// submission path: each iteration fans 8 concurrent callers into
// POST /jobs?coalesce=1, where the coalescer packs them into one shared
// encrypted execution (the program's slot capacity is exactly 8, so every
// batch seals at capacity without waiting out the timer). ns/op is therefore
// the cost of one batched execution serving 8 requests; divide by 8 for the
// amortized per-request figure. Tracked by the CI bench-regression gate.
func BenchmarkCoalescedExecute(b *testing.B) {
	f := newCoalesceFixture(b, Config{JobWorkers: 2}, 8, time.Second)
	const callers = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for j := 0; j < callers; j++ {
			wg.Add(1)
			go func(j int) {
				defer wg.Done()
				resp, status, err := f.postCoalesced(context.Background(), j)
				if err != nil || status != http.StatusOK {
					b.Errorf("caller %d: status %d, err %v", j, status, err)
					return
				}
				if resp.Result.Error != "" {
					b.Errorf("caller %d: %s", j, resp.Result.Error)
				}
			}(j)
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.N*callers)/b.Elapsed().Seconds(), "req/s")
}
