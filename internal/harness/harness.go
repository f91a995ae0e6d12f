// Package harness implements the paper's throughput benchmark: prefill the
// queue with 10^6 items, run P worker threads for a fixed wall-clock
// duration under a configurable workload and key distribution, and report
// million operations per second (MOps/s). Repeated runs are summarized with
// mean and 95% confidence intervals, as in the paper ("each benchmark is
// executed [10] times, and we report on the mean values and confidence
// intervals").
package harness

import (
	"fmt"
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
	// Duration is the measurement interval.
	Duration time.Duration
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
	// otherwise — counted by the batch-fallback telemetry counter). 0/1 is
	// the scalar mode. An operation is still one item moved: a batch call
	// counts OpBatch ops, and the unserved tail of a short delete batch
	// counts as empty deletes, so MOps/s stays comparable across widths.
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
	// LatencyP50, LatencyP99, LatencyP999 and LatencyMax are per-operation
	// latencies in nanoseconds, measured on a sample of operations (every
	// latencySampleEvery-th op). Populated by RunOps (the latency mode)
	// always, and by Run when telemetry is enabled — then from the log₂
	// histogram, so values are bucket upper bounds ("p99 ≤ X").
	LatencyP50, LatencyP99, LatencyP999, LatencyMax float64
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

// paddedCounter avoids false sharing between per-worker counters.
type paddedCounter struct {
	ops   uint64
	empty uint64
	_     [6]uint64
}

// Run executes one benchmark run. With telemetry enabled, a snapshot pair
// brackets the worker phase (prefill activity is excluded) and every
// latencySampleEvery-th operation is timed into the workers' private log₂
// histograms; Result.Telemetry carries the diff.
func Run(cfg Config) Result {
	cfg = cfg.withDefaults()
	q := cfg.NewQueue(cfg.Threads)
	defer pq.Close(q)
	PrefillQueue(q, cfg)
	var before telemetry.Snapshot
	if telemetry.Enabled {
		before = telemetry.Capture()
	}

	var (
		start    = make(chan struct{})
		stop     atomic.Bool
		counters = make([]paddedCounter, cfg.Threads)
		wg       sync.WaitGroup
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			tel := telemetry.NewShard()
			r := rng.New(cfg.Seed + uint64(w)*0x6a09e667f3bcc909)
			gen := keys.NewGenerator(cfg.KeyDist, r)
			policy := workload.ForWorkerBatched(cfg.Workload, w, cfg.Threads, 0.5, cfg.BatchSize, r)
			var ops, empty uint64
			if cfg.OpBatch > 1 {
				b := cfg.OpBatch
				kvs := make([]pq.KV, b)
				_, nativeIns := h.(pq.BatchInserter)
				_, nativeDel := h.(pq.BatchDeleter)
				var calls, fallback uint64
				<-start
				for !stop.Load() {
					// In batch mode the latency sample times one whole batch
					// call (the synchronization episode the batch API is
					// about), every latencySampleEvery-th call.
					sample := telemetry.Enabled && calls%latencySampleEvery == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					if policy.Next() == workload.Insert {
						for i := range kvs {
							kvs[i] = pq.KV{Key: gen.Next(), Value: uint64(w)}
						}
						pq.InsertN(h, kvs)
						if !nativeIns {
							fallback++
						}
						if sample {
							tel.ObserveInsert(time.Since(t0).Nanoseconds())
						}
					} else {
						got := pq.DeleteMinN(h, kvs, b)
						if !nativeDel {
							fallback++
						}
						if sample {
							tel.ObserveDelete(time.Since(t0).Nanoseconds())
						}
						for i := 0; i < got; i++ {
							gen.Observe(kvs[i].Key)
						}
						empty += uint64(b - got)
					}
					ops += uint64(b)
					calls++
				}
				if fallback > 0 {
					tel.Add(telemetry.BatchFallback, fallback)
				}
			} else {
				<-start
				for !stop.Load() {
					sample := telemetry.Enabled && ops%latencySampleEvery == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					if policy.Next() == workload.Insert {
						h.Insert(gen.Next(), uint64(w))
						if sample {
							tel.ObserveInsert(time.Since(t0).Nanoseconds())
						}
					} else {
						k, _, ok := h.DeleteMin()
						if sample {
							tel.ObserveDelete(time.Since(t0).Nanoseconds())
						}
						if ok {
							gen.Observe(k) // feeds the strict hold-model distributions
						} else {
							empty++
						}
					}
					ops++
				}
			}
			pq.Flush(h)
			counters[w].ops = ops
			counters[w].empty = empty
		}(w)
	}
	began := time.Now()
	close(start)
	time.Sleep(cfg.Duration)
	stop.Store(true)
	wg.Wait()
	elapsed := time.Since(began)

	res := Result{Duration: elapsed, PerThread: make([]uint64, cfg.Threads)}
	for w := range counters {
		res.Ops += counters[w].ops
		res.EmptyDeletes += counters[w].empty
		res.PerThread[w] = counters[w].ops
	}
	if telemetry.Enabled {
		snap := telemetry.Capture().Diff(before)
		res.Telemetry = &snap
		lat := snap.InsertLat.Merge(snap.DeleteLat)
		if lat.Count() > 0 {
			res.LatencyP50 = lat.Percentile(50)
			res.LatencyP99 = lat.Percentile(99)
			res.LatencyP999 = lat.Percentile(99.9)
			res.LatencyMax = lat.Percentile(100)
		}
	}
	return res
}

// latencySampleEvery controls the op-latency sampling rate of RunOps:
// every 16th operation is timed individually, keeping timer overhead out
// of the other 15.
const latencySampleEvery = 16

// RunOps is the benchmark's latency mode (the paper's "throughput/latency
// switch", Appendix F): instead of a fixed duration, each worker performs a
// prescribed number of operations, the total elapsed time is measured, and
// a sample of per-operation latencies yields P50/P99/P99.9/max (exact
// sample percentiles, unlike Run's bucketed ones). With telemetry enabled
// the sampled latencies additionally feed the per-kind histograms and
// Result.Telemetry carries the measured phase's counter deltas.
func RunOps(cfg Config, opsPerThread int) Result {
	cfg = cfg.withDefaults()
	if opsPerThread < 1 {
		opsPerThread = 1
	}
	q := cfg.NewQueue(cfg.Threads)
	defer pq.Close(q)
	PrefillQueue(q, cfg)
	var before telemetry.Snapshot
	if telemetry.Enabled {
		before = telemetry.Capture()
	}

	var (
		start    = make(chan struct{})
		counters = make([]paddedCounter, cfg.Threads)
		samples  = make([][]float64, cfg.Threads)
		wg       sync.WaitGroup
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			tel := telemetry.NewShard()
			r := rng.New(cfg.Seed + uint64(w)*0x6a09e667f3bcc909)
			gen := keys.NewGenerator(cfg.KeyDist, r)
			policy := workload.ForWorkerBatched(cfg.Workload, w, cfg.Threads, 0.5, cfg.BatchSize, r)
			local := make([]float64, 0, opsPerThread/latencySampleEvery+1)
			var done, empty uint64
			if cfg.OpBatch > 1 {
				b := cfg.OpBatch
				kvs := make([]pq.KV, b)
				_, nativeIns := h.(pq.BatchInserter)
				_, nativeDel := h.(pq.BatchDeleter)
				var calls, fallback uint64
				<-start
				for done < uint64(opsPerThread) {
					sample := calls%latencySampleEvery == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					isInsert := policy.Next() == workload.Insert
					if isInsert {
						for i := range kvs {
							kvs[i] = pq.KV{Key: gen.Next(), Value: uint64(w)}
						}
						pq.InsertN(h, kvs)
						if !nativeIns {
							fallback++
						}
					} else {
						got := pq.DeleteMinN(h, kvs, b)
						if !nativeDel {
							fallback++
						}
						for i := 0; i < got; i++ {
							gen.Observe(kvs[i].Key)
						}
						empty += uint64(b - got)
					}
					if sample {
						ns := time.Since(t0).Nanoseconds()
						local = append(local, float64(ns))
						if isInsert {
							tel.ObserveInsert(ns)
						} else {
							tel.ObserveDelete(ns)
						}
					}
					done += uint64(b)
					calls++
				}
				if fallback > 0 {
					tel.Add(telemetry.BatchFallback, fallback)
				}
			} else {
				<-start
				for i := 0; i < opsPerThread; i++ {
					sample := i%latencySampleEvery == 0
					var t0 time.Time
					if sample {
						t0 = time.Now()
					}
					isInsert := policy.Next() == workload.Insert
					if isInsert {
						h.Insert(gen.Next(), uint64(w))
					} else if k, _, ok := h.DeleteMin(); ok {
						gen.Observe(k)
					} else {
						empty++
					}
					if sample {
						ns := time.Since(t0).Nanoseconds()
						local = append(local, float64(ns))
						if isInsert {
							tel.ObserveInsert(ns)
						} else {
							tel.ObserveDelete(ns)
						}
					}
				}
				done = uint64(opsPerThread)
			}
			pq.Flush(h)
			counters[w].ops = done
			counters[w].empty = empty
			samples[w] = local
		}(w)
	}
	began := time.Now()
	close(start)
	wg.Wait()
	elapsed := time.Since(began)

	res := Result{Duration: elapsed, PerThread: make([]uint64, cfg.Threads)}
	var all []float64
	for w := range counters {
		res.Ops += counters[w].ops
		res.EmptyDeletes += counters[w].empty
		res.PerThread[w] = counters[w].ops
		all = append(all, samples[w]...)
	}
	if len(all) > 0 {
		res.LatencyP50 = stats.Percentile(all, 50)
		res.LatencyP99 = stats.Percentile(all, 99)
		res.LatencyP999 = stats.Percentile(all, 99.9)
		res.LatencyMax = stats.Percentile(all, 100)
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
	Config  Config
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
	s := Series{Config: cfg}
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

// String renders a Series row like the paper's plots report them.
func (s Series) String() string {
	return fmt.Sprintf("threads=%d %s/%s: %.3f ±%.3f MOps/s (n=%d)",
		s.Config.Threads, s.Config.Workload, s.Config.KeyDist,
		s.Throughput.Mean, s.Throughput.CI95, s.Throughput.N)
}
