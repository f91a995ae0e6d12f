// Package quality implements the paper's rank-error benchmark: "the rank of
// an item is its position within the priority queue as it is deleted". All
// operations are logged; the log is turned into a linear history; a
// sequential order-statistics structure replays the history and reports the
// rank of every deleted item. A strict queue scores rank 0 everywhere;
// relaxed queues are characterized by the distribution of ranks, which the
// paper reports as mean ± standard deviation per thread count.
//
// Where the paper reconstructs the linear order from logged timestamps,
// this implementation stamps every call at invocation and at response on
// one atomic clock (Recorder), and Replay derives two ranks per deletion:
//
//   - The pessimistic rank is the paper's: inserts ordered by invocation
//     and deletions by response. Concurrent operations may be ordered
//     adversely and duplicate keys count pessimistically, so it bounds the
//     semantic error from above. Result's mean, stddev, maximum and
//     histogram report it, and so do the paper's tables.
//   - The definite rank counts the smaller keys that every linearization
//     of the log places in the queue when the deletion takes effect. It
//     bounds the error from below, so a definite rank above a queue's
//     claimed bound is a real violation: verdicts judge it
//     (ViolationsAbove) with no slack.
package quality

import (
	"sync"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// Config describes one rank-error benchmark cell.
type Config struct {
	// NewQueue constructs the queue under test for a given thread count.
	NewQueue func(threads int) pq.Queue
	// Threads is the number of worker goroutines.
	Threads int
	// OpsPerThread is the number of operations each worker performs during
	// the measured phase (the quality benchmark is op-count-bounded so the
	// log has a known size).
	OpsPerThread int
	// Workload and KeyDist mirror the throughput benchmark's parameters.
	Workload workload.Kind
	KeyDist  keys.Distribution
	// Prefill items are inserted (and logged) before measurement;
	// negative selects 10^6 as in the throughput benchmark. Quality runs
	// typically use a smaller prefill so replay time stays reasonable.
	Prefill int
	// OpBatch as in the throughput harness: with OpBatch >= 2 the measured
	// phase moves items through InsertN/DeleteMinN in batches of this width.
	// A batch call's items share its invocation and response stamps, so
	// they are mutually concurrent in the replayed history. 0/1 is the
	// scalar mode.
	OpBatch int
	// Seed for reproducibility (0 → fixed default).
	Seed uint64
	// UsePool routes every handle — prefill and workers — through a
	// pq.Pool with the elastic Acquire/Release lifecycle: each worker
	// re-acquires its handle every poolChunk operations, so the live count
	// breathes during the run. The Result then carries the pool's
	// peak-live and created counts, and callers judge bounds against
	// EffectiveP instead of a frozen thread count.
	UsePool bool
}

// poolChunk is how many operations a pooled worker performs per
// Acquire/Release cycle; small enough that a quality run exercises many
// full lifecycles, large enough that pool traffic does not dominate the
// log.
const poolChunk = 512

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 100_000
	}
	if c.Prefill < 0 {
		c.Prefill = 1_000_000
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	return c
}

// Result summarizes the rank errors of one run.
type Result struct {
	// Deletions is the number of successful delete_min operations replayed.
	Deletions uint64
	// MeanRank and StddevRank summarize the pessimistic rank distribution
	// (rank 0 = exact minimum).
	MeanRank   float64
	StddevRank float64
	// MaxRank is the worst pessimistic rank observed.
	MaxRank int
	// Histogram counts pessimistic ranks in power-of-two buckets: bucket i
	// counts ranks in [2^(i-1), 2^i) with bucket 0 counting rank 0... rank 1.
	Histogram []uint64
	// Definite counts deletions by definite rank: Definite[r] deletions
	// had definite rank r. MaxDefinite is the largest definite rank.
	Definite    []uint64
	MaxDefinite int
	// PoolPeakLive and PoolCreated are the handle pool's statistics for a
	// UsePool run (zero otherwise); feed them to EffectiveP to get the
	// handle count the claimed bound should be judged against.
	PoolPeakLive int
	PoolCreated  int
}

// Run executes one rank-error benchmark run and replays its log.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	// Pool mode constructs the queue minimally sized: the pool's Grower
	// calls (pq.Pool.newHandle) grow layout-elastic structures to the
	// actual created-handle count, so EffectiveP judges the size the
	// structure really reached rather than a frozen Threads.
	constructP := cfg.Threads
	if cfg.UsePool {
		constructP = 1
	}
	q := cfg.NewQueue(constructP)
	defer pq.Close(q)

	// Handle lifecycle: plain mode hands out one q.Handle per role and
	// flushes it at the end; pool mode recycles handles through the
	// elastic Acquire/Release lifecycle (Release flushes), with the cap
	// sized so workers plus the prefill role can all hold one.
	var pool *pq.Pool
	acquire := func() pq.Handle { return q.Handle() }
	release := func(h pq.Handle) { pq.Flush(h) }
	if cfg.UsePool {
		pool = pq.NewPool(q, pq.PoolOptions{MaxHandles: cfg.Threads + 1})
		acquire = func() pq.Handle { return pool.Acquire() }
		release = func(h pq.Handle) { pool.Release(h.(*pq.PooledHandle)) }
	}

	var rec Recorder

	// Prefill, logged.
	{
		h := acquire()
		lg := rec.Log(cfg.Prefill)
		gen := keys.NewGenerator(cfg.KeyDist, rng.New(cfg.Seed^0xd1b54a32d192ed03))
		kv := make([]pq.KV, 1)
		for i := 0; i < cfg.Prefill; i++ {
			kv[0].Key = gen.Next()
			lg.Insert(h, kv)
		}
		release(h)
	}

	// Measured phase.
	var start = make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := acquire()
			lg := rec.Log(cfg.OpsPerThread)
			r := rng.New(cfg.Seed + uint64(w)*0x6a09e667f3bcc909)
			gen := keys.NewGenerator(cfg.KeyDist, r)
			policy := workload.ForWorker(cfg.Workload, w, cfg.Threads, 0.5, r)
			b := max(cfg.OpBatch, 1)
			kvs := make([]pq.KV, b) // b == 1: scalar Insert/DeleteMin calls
			<-start
			for i := 0; i < cfg.OpsPerThread; i += b {
				if pool != nil && i > 0 && i%poolChunk < b {
					// Elastic lifecycle: give the handle back (flushing its
					// buffers) and take one from the pool again.
					release(h)
					h = acquire()
				}
				if policy.Next() == workload.Insert {
					for j := range kvs {
						kvs[j].Key = gen.Next()
					}
					lg.Insert(h, kvs)
					continue
				}
				for _, kv := range kvs[:lg.DeleteMin(h, kvs)] {
					gen.Observe(kv.Key)
				}
			}
			// Publish buffered operations (engineered MultiQueue) before the
			// log is merged: items still sitting in a handle's buffers were
			// logged as inserted but never deleted, and Flush returns them to
			// the shared structure, so the replay neither loses nor
			// duplicates items. (Pool mode: Release flushes.)
			release(h)
		}(w)
	}
	close(start)
	wg.Wait()

	res := Replay(rec.Events())
	if pool != nil {
		res.PoolPeakLive = pool.PeakLive()
		res.PoolCreated = pool.Created()
	}
	return res
}
