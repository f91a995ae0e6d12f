// Package harness implements the paper's throughput benchmark: prefill the
// queue with 10^6 items, run P worker threads under a configurable workload
// and key distribution, and report million operations per second (MOps/s).
// A run lasts a fixed wall-clock duration, or a fixed number of operations
// per worker (Appendix F's throughput/latency switch); either way every
// worker runs the same loop. Repeated runs are summarized with mean and 95%
// confidence intervals, as in the paper ("each benchmark is executed [10]
// times, and we report on the mean values and confidence intervals").
package harness

import (
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/stats"
	"cpq/internal/telemetry"
	"cpq/internal/workload"
)

// DefaultPrefill is the paper's prefill size (10^6 elements).
const DefaultPrefill = 1_000_000

// Config describes one benchmark cell.
type Config struct {
	// NewQueue constructs a fresh queue for the given thread count. Thread
	// count matters to structures parameterized by P (MultiQueue, SprayList).
	NewQueue func(threads int) pq.Queue
	// Threads is the number of worker goroutines.
	Threads int
	// Duration is the measurement interval of a timed run (Ops <= 0).
	Duration time.Duration
	// Ops, when positive, makes the run op-counted: the latency mode. Each
	// worker performs Ops operations instead of running for Duration, the
	// elapsed time is measured, and every latencySampleEvery-th call is
	// timed into Result.LatencyP50/P99. At OpBatch width b a worker rounds
	// Ops up to a multiple of b.
	Ops int
	// Workload selects the operation mix.
	Workload workload.Kind
	// KeyDist selects the key distribution.
	KeyDist keys.Distribution
	// Prefill is the number of items inserted before measurement;
	// negative selects DefaultPrefill, zero means no prefill.
	Prefill int
	// BatchSize is the operation batch size under the Alternating workload
	// (Appendix F's "operation batch size"; 0/1 = strict alternation,
	// large values approximate the sorting benchmark).
	BatchSize int
	// OpBatch is the batch-first API width: with OpBatch >= 2 workers issue
	// InsertN/DeleteMinN calls moving OpBatch items each (through the native
	// batch paths where a queue has them, the generic scalar loop
	// otherwise). 0/1 is the scalar mode. An operation is still one item
	// moved: a batch call counts OpBatch ops, and the unserved tail of a
	// short delete batch counts as empty deletes, so MOps/s stays
	// comparable across widths.
	OpBatch int
	// Seed makes runs reproducible; 0 selects a fixed default.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Threads < 1 {
		c.Threads = 1
	}
	if c.Duration <= 0 {
		c.Duration = time.Second
	}
	if c.Prefill < 0 {
		c.Prefill = DefaultPrefill
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	return c
}

// Result is the outcome of a single run.
type Result struct {
	// Ops is the total number of completed operations (insertions plus
	// deletions; deletions on an empty queue count as operations, exactly
	// as a C++ benchmark loop would count them).
	Ops uint64
	// EmptyDeletes counts deletions that found the queue empty.
	EmptyDeletes uint64
	// Duration is the measured wall-clock interval.
	Duration time.Duration
	// PerThread is the per-worker operation count (load-balance insight).
	PerThread []uint64
	// LatencyP50 and LatencyP99 are exact percentiles, in nanoseconds, of
	// the per-call latencies an op-counted run samples (a batch call is
	// timed whole). Zero for a timed run.
	LatencyP50, LatencyP99 float64
	// Telemetry holds the queue-internals counter and latency-histogram
	// deltas of the measured phase (prefill excluded: the snapshot pair
	// brackets only the worker phase). Nil unless telemetry.Enabled.
	Telemetry *telemetry.Snapshot
}

// MOps returns the throughput in million operations per second.
func (r Result) MOps() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.Ops) / 1e6 / r.Duration.Seconds()
}

// latencySampleEvery is the latency sampling rate: every 16th call is
// timed, keeping timer overhead out of the other 15.
const latencySampleEvery = 16

// worker is one load goroutine's state: its handle, key generator,
// operation policy and width-OpBatch scratch, plus the totals of its run
// calls.
type worker struct {
	h      pq.Handle
	val    uint64 // the value every insert carries: the worker's index
	gen    *keys.Generator
	policy workload.Policy
	kvs    []pq.KV // batch scratch; nil at width 1
	tel    *telemetry.Shard
	// timed makes run time every latencySampleEvery-th call into tel's
	// histograms; exact also keeps each sample in samples.
	timed, exact bool
	samples      []float64
	ops, empty   uint64
}

// newWorker builds worker id's state for cfg. Call it from the goroutine
// that runs the worker: on fig 4a's multiq-s4-b8 cell at 2 threads,
// workers whose RNG, generator and policy the spawning goroutine built ran
// 29% slower (EXPERIMENTS.md, "One load loop").
func newWorker(h pq.Handle, cfg Config, id int, timed bool) *worker {
	r := rng.New(cfg.Seed + uint64(id)*0x6a09e667f3bcc909)
	w := &worker{
		h:      h,
		val:    uint64(id),
		gen:    keys.NewGenerator(cfg.KeyDist, r),
		policy: workload.ForWorkerBatched(cfg.Workload, id, cfg.Threads, 0.5, cfg.BatchSize, r),
		tel:    telemetry.NewShard(),
		timed:  timed,
		exact:  cfg.Ops > 0,
	}
	if cfg.OpBatch > 1 {
		w.kvs = make([]pq.KV, cfg.OpBatch)
	}
	if w.exact {
		w.samples = make([]float64, 0, cfg.Ops/latencySampleEvery+1)
	}
	return w
}

// run performs operations until stop is set or budget operations are
// done. A call of width b counts b operations, and a delete batch that
// comes back short counts its shortfall as empty deletes, as a DeleteMin
// on an empty queue counts one.
func (w *worker) run(stop *atomic.Bool, budget uint64) {
	width := uint64(max(len(w.kvs), 1))
	var ops, empty uint64
	for calls := 0; ops < budget && !stop.Load(); calls++ {
		sample := w.timed && calls%latencySampleEvery == 0
		var t0 time.Time
		if sample {
			t0 = time.Now()
		}
		insert := w.policy.Next() == workload.Insert
		switch {
		case insert && w.kvs == nil:
			w.h.Insert(w.gen.Next(), w.val)
		case insert:
			for i := range w.kvs {
				w.kvs[i] = pq.KV{Key: w.gen.Next(), Value: w.val}
			}
			pq.InsertN(w.h, w.kvs)
		case w.kvs == nil:
			if k, _, ok := w.h.DeleteMin(); ok {
				w.gen.Observe(k) // feeds the strict hold-model distributions
			} else {
				empty++
			}
		default:
			got := pq.DeleteMinN(w.h, w.kvs, len(w.kvs))
			for _, kv := range w.kvs[:got] {
				w.gen.Observe(kv.Key)
			}
			empty += uint64(len(w.kvs) - got)
		}
		if sample {
			ns := time.Since(t0).Nanoseconds()
			if w.exact {
				w.samples = append(w.samples, float64(ns))
			}
			if insert {
				w.tel.ObserveInsert(ns)
			} else {
				w.tel.ObserveDelete(ns)
			}
		}
		ops += width
	}
	w.ops += ops
	w.empty += empty
}

// Run executes one benchmark run: timed, or op-counted when cfg.Ops > 0.
// With telemetry enabled, a snapshot pair brackets the worker phase
// (prefill activity is excluded), every latencySampleEvery-th call is
// timed into the workers' private log₂ histograms, and Result.Telemetry
// carries the diff.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	q := cfg.NewQueue(cfg.Threads)
	defer pq.Close(q)
	PrefillQueue(q, cfg)
	var before telemetry.Snapshot
	if telemetry.Enabled {
		before = telemetry.Capture()
	}

	budget := ^uint64(0)
	if cfg.Ops > 0 {
		budget = uint64(cfg.Ops)
	}
	var (
		start   = make(chan struct{})
		stop    atomic.Bool
		workers = make([]*worker, cfg.Threads)
		wg      sync.WaitGroup
	)
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := newWorker(q.Handle(), cfg, i, cfg.Ops > 0 || telemetry.Enabled)
			<-start
			w.run(&stop, budget)
			pq.Flush(w.h)
			workers[i] = w
		}()
	}
	began := time.Now()
	close(start)
	if cfg.Ops <= 0 {
		time.Sleep(cfg.Duration)
		stop.Store(true)
	}
	wg.Wait()

	res := Result{Duration: time.Since(began), PerThread: make([]uint64, cfg.Threads)}
	var samples []float64
	for i, w := range workers {
		res.Ops += w.ops
		res.EmptyDeletes += w.empty
		res.PerThread[i] = w.ops
		samples = append(samples, w.samples...)
	}
	if len(samples) > 0 {
		res.LatencyP50 = stats.Percentile(samples, 50)
		res.LatencyP99 = stats.Percentile(samples, 99)
	}
	if telemetry.Enabled {
		snap := telemetry.Capture().Diff(before)
		res.Telemetry = &snap
	}
	return res
}

// PrefillQueue inserts cfg.Prefill items using the configured key
// distribution, in parallel across the configured thread count, exactly as
// the benchmark's prefill phase ("prefilling is done according to the
// workload and key distribution").
func PrefillQueue(q pq.Queue, cfg Config) {
	cfg = cfg.withDefaults()
	if cfg.Prefill == 0 {
		return
	}
	var wg sync.WaitGroup
	per := cfg.Prefill / cfg.Threads
	extra := cfg.Prefill % cfg.Threads
	for w := 0; w < cfg.Threads; w++ {
		n := per
		if w < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			h := q.Handle()
			r := rng.New(cfg.Seed ^ (uint64(w)+1)*0xbf58476d1ce4e5b9)
			gen := keys.NewGenerator(cfg.KeyDist, r)
			for i := 0; i < n; i++ {
				h.Insert(gen.Next(), uint64(w))
			}
			pq.Flush(h)
		}(w, n)
	}
	wg.Wait()
}

// Series is the aggregated outcome of repeated runs of one cell.
type Series struct {
	Results []Result
	// Throughput summarizes MOps/s across the repetitions.
	Throughput stats.Summary
	// Telemetry is the sum of the per-repetition counter deltas; nil unless
	// telemetry was enabled for the runs.
	Telemetry *telemetry.Snapshot
}

// RunRepeated executes reps runs of cfg and summarizes the throughput.
// Reps < 1 is treated as 1. Each repetition uses a derived seed so runs are
// independent but the series is reproducible.
func RunRepeated(cfg Config, reps int) Series {
	if reps < 1 {
		reps = 1
	}
	cfg = cfg.withDefaults()
	var s Series
	mops := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)*0x2545f4914f6cdd1d
		r := Run(c)
		s.Results = append(s.Results, r)
		mops = append(mops, r.MOps())
		if r.Telemetry != nil {
			if s.Telemetry == nil {
				s.Telemetry = &telemetry.Snapshot{}
			}
			merged := s.Telemetry.Merge(*r.Telemetry)
			s.Telemetry = &merged
		}
	}
	s.Throughput = stats.Summarize(mops)
	return s
}
