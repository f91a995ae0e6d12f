// Goroutine-churn benchmark mode: the handle-lifecycle stress the paper's
// fixed-P harness cannot express. A server that spawns a goroutine per
// request breaks the paper's model in both directions — goroutines
// outnumber GOMAXPROCS by orders of magnitude and live for one small op
// burst — so the cost under test is not the queue's operations but the
// handle lifecycle around them: checkout, a short burst, checkin, repeat,
// M times. RunChurn drives that shape through either the elastic pq.Pool
// (the subsystem under test) or a deliberately naive mutex-guarded handle
// list (the baseline every server would write first), so the two can be
// compared cell-for-cell.
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
	// AbandonEvery, when > 0, makes every AbandonEvery-th goroutine exit
	// without returning its handle. Pool mode recovers these by stealing;
	// the naive baseline loses the handle outright (and, being naive, any
	// items it still buffered) and pays for a fresh one.
	AbandonEvery int
	// MaxHandles caps the pool (<= 0 selects Slots+1). Ignored by the
	// naive baseline, which has no cap.
	MaxHandles int
	// Naive selects the baseline lifecycle: one global mutex around a
	// free-handle list instead of the pool's per-shard fast path.
	Naive bool
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
	if c.MaxHandles <= 0 {
		c.MaxHandles = c.Slots + 1
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
	// HandlesCreated, PeakLive and Steals are the lifecycle's accounting:
	// how many real handles backed the M goroutines, the high-water mark
	// of concurrently checked-out handles, and how many abandoned handles
	// were stolen back (always 0 for the naive baseline — it cannot).
	HandlesCreated int
	PeakLive       int
	Steals         uint64
}

// MOps returns the throughput in million operations per second. Lifecycle
// overhead is inside the measured interval, which is the point.
func (s ChurnStats) MOps() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Ops) / 1e6 / s.Duration.Seconds()
}

// naiveLifecycle is the baseline: a single mutex around a free-handle
// slice. Checkout and checkin serialize every goroutine through one lock
// and one cache line; an abandoned handle is simply gone, so the created
// count climbs with the abandonment rate and structures whose per-handle
// state persists (the k-LSM family) accumulate dead components.
type naiveLifecycle struct {
	q       pq.Queue
	mu      sync.Mutex
	free    []pq.Handle
	live    int
	peak    int
	created int
}

func (n *naiveLifecycle) acquire() pq.Handle {
	n.mu.Lock()
	var h pq.Handle
	if l := len(n.free); l > 0 {
		h = n.free[l-1]
		n.free = n.free[:l-1]
	} else {
		h = n.q.Handle()
		n.created++
	}
	n.live++
	if n.live > n.peak {
		n.peak = n.live
	}
	n.mu.Unlock()
	return h
}

func (n *naiveLifecycle) release(h pq.Handle) {
	pq.Flush(h)
	n.mu.Lock()
	n.free = append(n.free, h)
	n.live--
	n.mu.Unlock()
}

// RunChurn spawns cfg.Goroutines short-lived goroutines across cfg.Slots
// spawn-join slots. Each goroutine checks a handle out, performs
// cfg.BurstOps operations, and checks it back in (unless it is an
// abandoner); its slot then spawns the next. The measured interval covers
// the whole churn, so checkout/checkin cost is part of the reported
// throughput.
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

	var pool *pq.Pool
	var naive *naiveLifecycle
	var acquire func() pq.Handle
	var release func(pq.Handle)
	if cfg.Naive {
		naive = &naiveLifecycle{q: q}
		acquire = naive.acquire
		release = naive.release
	} else {
		pool = pq.NewPool(q, pq.PoolOptions{MaxHandles: cfg.MaxHandles})
		acquire = func() pq.Handle { return pool.Acquire() }
		release = func(h pq.Handle) { pool.Release(h.(*pq.PooledHandle)) }
	}

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
				abandon := cfg.AbandonEvery > 0 && (g+1)%cfg.AbandonEvery == 0
				go func() {
					h := acquire()
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
					if !abandon {
						release(h)
					} // abandoners just exit: pool steals, naive loses
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
		Duration:   elapsed,
		PerSlot:    make([]uint64, cfg.Slots),
		Goroutines: cfg.Goroutines,
	}
	for s := range counters {
		res.Ops += counters[s].ops
		res.EmptyDeletes += counters[s].empty
		res.PerSlot[s] = counters[s].ops
	}
	if pool != nil {
		res.HandlesCreated = pool.Created()
		res.PeakLive = pool.PeakLive()
		res.Steals = pool.Steals()
	} else {
		res.HandlesCreated = naive.created
		res.PeakLive = naive.peak
	}
	return res
}
