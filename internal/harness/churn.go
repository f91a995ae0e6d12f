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
	"time"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// ChurnConfig describes one goroutine-churn benchmark cell.
type ChurnConfig struct {
	// NewQueue constructs the queue under test for a given handle count
	// (churn mode passes 1: the pool's Grower calls do the sizing).
	NewQueue func(threads int) pq.Queue
	// Slots is the number of concurrently live goroutines: each slot runs
	// its share of the Goroutines sequentially, spawn-join, so at any
	// moment at most Slots short-lived goroutines (and handles) are live.
	// It is also the pool's cap.
	Slots int
	// Goroutines is the total number of short-lived goroutines spawned
	// across all slots (the benchmark's M, typically >> GOMAXPROCS).
	Goroutines int
	// BurstOps is how many operations each goroutine performs between
	// checkout and checkin (the "small op burst"; default 64).
	BurstOps int
	// Workload, KeyDist, Prefill and Seed mirror Config.
	Workload workload.Kind
	KeyDist  keys.Distribution
	Prefill  int
	Seed     uint64
}

func (c ChurnConfig) withDefaults() ChurnConfig {
	if c.Slots < 1 {
		c.Slots = 1
	}
	if c.Goroutines < c.Slots {
		c.Goroutines = c.Slots
	}
	if c.BurstOps < 1 {
		c.BurstOps = 64
	}
	if c.Prefill < 0 {
		c.Prefill = DefaultPrefill
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	return c
}

// ChurnStats is the outcome of one churn run.
type ChurnStats struct {
	// Ops, EmptyDeletes and Duration as in Result; PerSlot is the
	// per-slot operation count.
	Ops, EmptyDeletes uint64
	Duration          time.Duration
	PerSlot           []uint64
	// Goroutines is the number of short-lived goroutines actually spawned.
	Goroutines int
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
// spawn-join slots. Each goroutine checks a handle out, performs
// cfg.BurstOps operations, and checks it back in; its slot then spawns the
// next. The measured interval covers the whole churn, so checkout/checkin
// cost is part of the reported throughput.
func RunChurn(cfg ChurnConfig) ChurnStats {
	cfg = cfg.withDefaults()
	// Construct minimally sized: the pool grows layout-elastic structures
	// (Grower) as it creates handles, which is the lifecycle under test.
	q := cfg.NewQueue(1)
	defer pq.Close(q)
	pcfg := Config{
		NewQueue: func(int) pq.Queue { return q },
		Threads:  cfg.Slots,
		KeyDist:  cfg.KeyDist,
		Prefill:  cfg.Prefill,
		Seed:     cfg.Seed,
	}
	PrefillQueue(q, pcfg)

	pool := pq.NewPool(q, pq.PoolOptions{MaxHandles: cfg.Slots})

	var (
		start    = make(chan struct{})
		counters = make([]paddedCounter, cfg.Slots)
		wg       sync.WaitGroup
	)
	for s := 0; s < cfg.Slots; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			// Slot-local request context: the RNG, key generator and
			// workload policy persist across the slot's goroutines (they
			// run strictly one after another), so the measured per-
			// goroutine cost is the handle lifecycle, not generator setup.
			r := rng.New(cfg.Seed + uint64(s)*0x6a09e667f3bcc909)
			gen := keys.NewGenerator(cfg.KeyDist, r)
			policy := workload.ForWorker(cfg.Workload, s, cfg.Slots, 0.5, r)
			var ops, empty uint64
			done := make(chan struct{}) // reused by every goroutine of this slot
			<-start
			for g := s; g < cfg.Goroutines; g += cfg.Slots {
				go func() {
					h := pool.Acquire()
					for i := 0; i < cfg.BurstOps; i++ {
						if policy.Next() == workload.Insert {
							h.Insert(gen.Next(), uint64(s))
						} else if k, _, ok := h.DeleteMin(); ok {
							gen.Observe(k)
						} else {
							empty++
						}
					}
					ops += uint64(cfg.BurstOps)
					pool.Release(h)
					done <- struct{}{}
				}()
				<-done
			}
			counters[s].ops = ops
			counters[s].empty = empty
		}(s)
	}
	began := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(began)

	res := ChurnStats{
		Duration:       elapsed,
		PerSlot:        make([]uint64, cfg.Slots),
		Goroutines:     cfg.Goroutines,
		HandlesCreated: pool.Created(),
		PeakLive:       pool.PeakLive(),
	}
	for s := range counters {
		res.Ops += counters[s].ops
		res.EmptyDeletes += counters[s].empty
		res.PerSlot[s] = counters[s].ops
	}
	return res
}
