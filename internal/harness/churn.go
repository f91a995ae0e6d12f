// Goroutine-churn benchmark mode: the handle-lifecycle stress the paper's
// fixed-P harness cannot express. A server that spawns a goroutine per
// request breaks the paper's model in both directions — goroutines
// outnumber GOMAXPROCS by orders of magnitude and live for one small op
// burst — so the cost under test is not the queue's operations but the
// handle lifecycle around them: checkout, a short burst, checkin, repeat,
// M times. RunChurn drives that shape through the pq.Pool.
package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/workload"
)

// BurstOps is how many operations each short-lived goroutine performs
// between checkout and checkin: the "small op burst".
const BurstOps = 64

// ChurnConfig describes one goroutine-churn benchmark cell.
type ChurnConfig struct {
	// NewQueue constructs the queue under test for a given handle count
	// (churn mode passes 1: the pool's Grower calls do the sizing).
	NewQueue func(threads int) pq.Queue
	// Slots is the number of concurrently live goroutines: each slot runs
	// its share of the Goroutines sequentially, spawn-join, so at any
	// moment at most Slots short-lived goroutines (and handles) are live.
	// It is also the pool's cap. Values below 1 select 1.
	Slots int
	// Goroutines is the total number of short-lived goroutines spawned
	// across all slots (the benchmark's M, typically >> GOMAXPROCS); at
	// least Slots.
	Goroutines int
	// Workload, KeyDist, Prefill and Seed mirror Config.
	Workload workload.Kind
	KeyDist  keys.Distribution
	Prefill  int
	Seed     uint64
}

// ChurnStats is the outcome of one churn run.
type ChurnStats struct {
	// Ops and Duration as in Result.
	Ops      uint64
	Duration time.Duration
	// HandlesCreated and PeakLive are the pool's accounting: how many real
	// handles backed the M goroutines, and the high-water mark of
	// concurrently checked-out handles.
	HandlesCreated int
	PeakLive       int
}

// MOps returns the throughput in million operations per second. Lifecycle
// overhead is inside the measured interval, which is the point.
func (s ChurnStats) MOps() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Ops) / 1e6 / s.Duration.Seconds()
}

// RunChurn spawns cfg.Goroutines short-lived goroutines across cfg.Slots
// spawn-join slots. Each goroutine checks a handle out, runs its slot's
// worker for BurstOps operations, and checks the handle back in; its slot
// then spawns the next. The measured interval covers the whole churn, so
// checkout/checkin cost is part of the reported throughput.
func RunChurn(cfg ChurnConfig) ChurnStats {
	slots := max(cfg.Slots, 1)
	goroutines := max(cfg.Goroutines, slots)
	wcfg := Config{
		Threads:  slots,
		Workload: cfg.Workload,
		KeyDist:  cfg.KeyDist,
		Prefill:  cfg.Prefill,
		Seed:     cfg.Seed,
	}.withDefaults()
	// Construct minimally sized: the pool grows layout-elastic structures
	// (Grower) as it creates handles, which is the lifecycle under test.
	q := cfg.NewQueue(1)
	defer pq.Close(q)
	PrefillQueue(q, wcfg)
	pool := pq.NewPool(q, pq.PoolOptions{MaxHandles: slots})

	var (
		start = make(chan struct{})
		never atomic.Bool // bursts end on their budget
		ops   = make([]uint64, slots)
		wg    sync.WaitGroup
	)
	for s := range ops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The slot's worker persists across its goroutines (they run
			// strictly one after another), so the measured per-goroutine
			// cost is the handle lifecycle, not generator setup.
			w := newWorker(nil, wcfg, s, false)
			done := make(chan struct{}) // reused by every goroutine of this slot
			<-start
			for g := s; g < goroutines; g += slots {
				go func() {
					h := pool.Acquire()
					w.h = h
					w.run(&never, BurstOps)
					pool.Release(h)
					done <- struct{}{}
				}()
				<-done
			}
			ops[s] = w.ops
		}()
	}
	began := time.Now()
	close(start)
	wg.Wait()

	res := ChurnStats{
		Duration:       time.Since(began),
		HandlesCreated: pool.Created(),
		PeakLive:       pool.PeakLive(),
	}
	for _, n := range ops {
		res.Ops += n
	}
	return res
}
