package chaos

import (
	"fmt"
	"sync"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
	"cpq/internal/workload"
)

// CheckConfig describes one chaos stress run: a queue driven by concurrent
// workers under fault injection while every operation is logged, followed
// by a forensic pass that checks suite-wide invariants (see Check).
type CheckConfig struct {
	// NewQueue constructs the queue under test for a given thread count.
	// (A factory rather than a registry name: internal/core and friends
	// import this package for their failpoints, so the checker cannot
	// import the registry without a cycle. The CLI and tests pass
	// cpq.NewQueue closures.)
	NewQueue func(threads int) pq.Queue
	// Name is the queue's registry identifier; it selects the claimed
	// relaxation bound (quality.ClaimedBound) and labels the report.
	Name string
	// Threads is the number of concurrent workers (default 4).
	Threads int
	// OpsPerThread is each worker's operation budget (default 5000).
	OpsPerThread int
	// Prefill items are inserted (and logged) before the workers start
	// (default 2·OpsPerThread, so deletes mostly find items).
	Prefill int
	// OpBatch, when >= 2, makes workers interleave batch and scalar
	// operations: every other call is an InsertN/DeleteMinN of this width
	// (its items logged under the call's shared stamps), the rest are
	// ordinary Insert/DeleteMin. The interleaving stresses exactly the
	// hand-off the batch paths share with the scalar ones — run buffers,
	// insertion buffers, claim flags — under fault injection.
	OpBatch int
	// Abandon is how many workers stop mid-phase — at half their budget,
	// without flushing — leaving items in their insertion/deletion/run
	// buffers (default 1 when Threads > 1). The post-phase Flush must make
	// those items reachable again; losing them is an invariant violation.
	Abandon int
	// UsePool routes every handle through a pq.Pool. Abandoned handles are
	// then recovered by Release, which flushes, instead of a manual Flush,
	// and the relaxation bound is judged against the dynamic handle count
	// (quality.EffectiveP of the pool's peak-live and created counts)
	// instead of a frozen Threads+2.
	UsePool bool
	// Seed drives the fault injection, the key streams and the workload
	// mix. A failing seed reproduces the same injected decision sequence
	// (see the package documentation on determinism). Zero selects the
	// package default.
	Seed uint64
	// Injection tunes the failpoint behaviour; the zero value selects the
	// defaults documented on Config. Its Seed field is overridden by Seed.
	Injection Config
}

func (c CheckConfig) withDefaults() CheckConfig {
	if c.Threads < 1 {
		c.Threads = 4
	}
	if c.OpsPerThread <= 0 {
		c.OpsPerThread = 5000
	}
	if c.Prefill < 0 {
		c.Prefill = 0
	} else if c.Prefill == 0 {
		c.Prefill = 2 * c.OpsPerThread
	}
	if c.Abandon == 0 && c.Threads > 1 {
		c.Abandon = 1
	}
	if c.Abandon > c.Threads {
		c.Abandon = c.Threads
	}
	if c.Seed == 0 {
		c.Seed = 0x9e3779b97f4a7c15
	}
	return c
}

// CheckResult is the outcome of one chaos stress run.
type CheckResult struct {
	Name string
	Seed uint64
	// Inserts and Deletions count logged operations (workers + prefill +
	// drain).
	Inserts, Deletions uint64
	// Drained is how many items the post-phase drain recovered.
	Drained uint64
	// Bound and Kind echo the verified relaxation claim; Quality is the
	// replayed rank-error distribution.
	Bound   int
	Kind    quality.BoundKind
	Quality quality.Result
	// Injected reports the failpoint activity of the run (coverage).
	Injected Stats
	// PoolPeakLive and PoolCreated are the handle pool's statistics for a
	// UsePool run (zero otherwise); Bound is then derived from
	// quality.EffectiveP(Name, PoolPeakLive, PoolCreated).
	PoolPeakLive, PoolCreated int
	// Violations lists every invariant violation found; empty means PASS.
	Violations []string
}

// Failed reports whether any invariant was violated.
func (r CheckResult) Failed() bool { return len(r.Violations) > 0 }

// Check runs one chaos stress cycle and verifies the suite-wide
// invariants. The cycle has four phases:
//
//  1. Enable injection (seeded), construct the queue, prefill through a
//     logged handle.
//  2. Concurrent phase: Threads workers run a uniform insert/delete mix,
//     logging every call through a quality.Recorder (invocation and
//     response stamps, unique item identities in the value word). The
//     first Abandon workers stop at half budget without flushing —
//     mid-operation handle abandonment — while the rest flush when done,
//     as the harnesses do.
//  3. Recovery: release every abandoned handle — a Flush (the pq.Flusher
//     contract), or in pool mode a Release, which flushes — then drain
//     the queue to empty single-threaded through a fresh handle, still
//     under injection. If the drain reports empty while logged items
//     remain unaccounted, flush-and-retry; items that only appear after
//     a retry convict the emptiness oracle.
//  4. Forensics on the merged log: every inserted item deleted at most
//     once (nothing deleted twice, nothing conjured), every item deleted
//     exactly once overall (nothing lost, buffered items made reachable
//     again by Flush), and no deletion with a definite rank above the
//     claimed relaxation bound (kP for the k-LSM, k for the SLSM, 0 for
//     the exact queues).
//
// Check owns the package-global injection state: it calls Enable before
// constructing the queue and Disable before returning, so callers must not
// run two Checks (or any other instrumented work) concurrently.
func Check(cfg CheckConfig) CheckResult {
	cfg = cfg.withDefaults()
	res := CheckResult{Name: cfg.Name, Seed: cfg.Seed}
	res.Bound, res.Kind = quality.ClaimedBound(cfg.Name, cfg.Threads+2)

	inj := cfg.Injection
	inj.Seed = cfg.Seed
	Enable(inj)
	defer Disable()

	// Pool mode constructs the queue minimally sized — the pool's Grower
	// calls size layout-elastic structures to the created-handle count, so
	// the dynamic bound judges the size the structure really reached.
	constructP := cfg.Threads
	if cfg.UsePool {
		constructP = 1
	}
	q := cfg.NewQueue(constructP)
	defer pq.Close(q)
	var rec quality.Recorder

	// Handle lifecycle: plain mode hands out q.Handle() per role and
	// releases by Flush; pool mode routes every role through
	// Acquire/Release.
	var pool *pq.Pool
	acquire := func() pq.Handle { return q.Handle() }
	release := func(h pq.Handle) { pq.Flush(h) }
	if cfg.UsePool {
		pool = pq.NewPool(q, pq.PoolOptions{MaxHandles: cfg.Threads + 2})
		acquire = func() pq.Handle { return pool.Acquire() }
		release = func(h pq.Handle) { pool.Release(h.(*pq.PooledHandle)) }
	}

	// Phase 1: logged prefill. The prefill handle counts toward the
	// effective P of the kP window (hence Threads+2 above: prefill handle,
	// workers, drain handle — the drain handle replaces a worker slot but
	// the bound only loosens, never tightens, by over-counting).
	{
		h := acquire()
		lg := rec.Log(cfg.Prefill)
		gen := keys.NewGenerator(keys.Uniform32, rng.New(cfg.Seed^0xd1b54a32d192ed03))
		kv := make([]pq.KV, 1)
		for i := 0; i < cfg.Prefill; i++ {
			kv[0].Key = gen.Next()
			lg.Insert(h, kv)
		}
		release(h)
	}

	// Phase 2: concurrent measured phase.
	var (
		handles = make([]pq.Handle, cfg.Threads)
		start   = make(chan struct{})
		wg      sync.WaitGroup
	)
	for w := 0; w < cfg.Threads; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := acquire()
			handles[w] = h
			r := rng.New(cfg.Seed + uint64(w)*0x6a09e667f3bcc909)
			gen := keys.NewGenerator(keys.Uniform32, r)
			policy := workload.ForWorkerBatched(workload.Uniform, w, cfg.Threads, 0, 0, r)
			abandoned := w < cfg.Abandon
			budget := cfg.OpsPerThread
			if abandoned {
				budget /= 2 // stop mid-phase, buffers still loaded
			}
			lg := rec.Log(budget)
			kvs := make([]pq.KV, max(cfg.OpBatch, 1))
			<-start
			for i, call := 0, 0; i < budget; call++ {
				c := kvs[:1]
				if call%2 == 0 {
					c = kvs // interleave batch and scalar calls
				}
				if policy.Next() == workload.Insert {
					for j := range c {
						c[j].Key = gen.Next()
					}
					lg.Insert(h, c)
				} else {
					for _, kv := range c[:lg.DeleteMin(h, c)] {
						gen.Observe(kv.Key)
					}
				}
				i += len(c)
			}
			if !abandoned {
				release(h)
			}
		}(w)
	}
	close(start)
	wg.Wait()

	// Phase 3: recovery and drain. Releasing the abandoned handles
	// exercises the Flusher contract: everything they still buffer must
	// become reachable. (Safe from this goroutine: the workers have
	// joined.)
	for w := 0; w < cfg.Abandon; w++ {
		release(handles[w])
	}
	if pool != nil {
		if live := pool.Live(); live != 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"pool: %d handles still live after every worker released", live))
		}
		handles = nil // back in the pool: no longer ours to flush
	}
	drainH := acquire()
	drain, kv := rec.Log(0), make([]pq.KV, 1)
	var totalInserted, logged uint64 // items inserted, deletions logged so far
	for _, e := range rec.Events() {
		if e.Del {
			logged++
		} else {
			totalInserted++
		}
	}
	for retries := 0; ; {
		if drain.DeleteMin(drainH, kv) == 1 {
			res.Drained++
			continue
		}
		if logged+res.Drained >= totalInserted || retries >= 2 {
			break
		}
		// The queue claims empty but items are unaccounted for. Flush
		// everything once more and retry: items recovered only now convict
		// the emptiness oracle (phase 4 reports them); items never
		// recovered are lost.
		retries++
		for _, h := range handles {
			pq.Flush(h)
		}
		pq.Flush(drainH)
		if drain.DeleteMin(drainH, kv) == 1 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"emptiness oracle: DeleteMin reported empty while items were still reachable (retry %d recovered id %d key %d)",
				retries, kv[0].Value, kv[0].Key))
			res.Drained++
		}
	}
	if k, v, ok := pq.PeekMin(drainH); ok {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"emptiness oracle: PeekMin reports key %d (value %d) after DeleteMin reported empty", k, v))
	} else if k, v, ok := pq.PeekMin(q); ok {
		res.Violations = append(res.Violations, fmt.Sprintf(
			"emptiness oracle: queue PeekMin reports key %d (value %d) after DeleteMin reported empty", k, v))
	}
	if pool != nil {
		release(drainH)
		res.PoolPeakLive = pool.PeakLive()
		res.PoolCreated = pool.Created()
		// Dynamic relaxation accounting: the run's actual handle lifecycle,
		// not a frozen Threads+2, sets the kP window (shrinking it when the
		// peak-live count stayed low; see quality.EffectiveP for the k-LSM
		// created-count exception).
		res.Bound, res.Kind = quality.ClaimedBound(cfg.Name,
			quality.EffectiveP(cfg.Name, res.PoolPeakLive, res.PoolCreated))
	}

	// Phase 4: forensics on the merged log.
	events := rec.Events()
	res.accountItems(events, totalInserted)
	res.Quality = quality.Replay(events)
	if res.Kind != quality.BoundNone {
		if v := quality.ViolationsAbove(res.Quality, res.Bound); v > 0 {
			res.Violations = append(res.Violations, fmt.Sprintf(
				"relaxation bound: %d of %d deletions had a definite rank above the claimed %s bound %d (max definite rank %d)",
				v, res.Quality.Deletions, res.Kind, res.Bound, res.Quality.MaxDefinite))
		}
	}

	res.Injected = Snapshot()
	return res
}

// accountItems checks the exact item-conservation invariants on the merged
// log, given in any order: every delete corresponds to a logged insert with
// a matching key, no item is deleted twice, and no item is lost (undeleted
// after flush+drain).
func (r *CheckResult) accountItems(events []quality.Event, totalInserted uint64) {
	keyByID := make([]uint64, totalInserted+1)
	seen := make([]bool, totalInserted+1)
	delCount := make([]uint8, totalInserted+1)
	for _, e := range events {
		if !e.Del {
			r.Inserts++
			keyByID[e.ID] = e.Key
			seen[e.ID] = true
		}
	}
	var dup, phantom, mismatch, lost uint64
	var firstDetail, firstLost string
	count := func(n *uint64, first *string, format string, args ...any) {
		*n++
		if *first == "" {
			*first = fmt.Sprintf(format, args...)
		}
	}
	for _, e := range events {
		if !e.Del {
			continue
		}
		r.Deletions++
		switch {
		case e.ID == 0 || e.ID > totalInserted || !seen[e.ID]:
			count(&phantom, &firstDetail, "first: id %d key %d never inserted", e.ID, e.Key)
			continue
		case keyByID[e.ID] != e.Key:
			count(&mismatch, &firstDetail, "first: id %d returned key %d, inserted as %d", e.ID, e.Key, keyByID[e.ID])
		case delCount[e.ID] > 0:
			count(&dup, &firstDetail, "first: id %d key %d", e.ID, e.Key)
		}
		if delCount[e.ID] < 255 {
			delCount[e.ID]++
		}
	}
	for id := uint64(1); id <= totalInserted; id++ {
		if seen[id] && delCount[id] == 0 {
			count(&lost, &firstLost, "first: id %d key %d", id, keyByID[id])
		}
	}
	if phantom > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"conservation: %d deletions returned items that were never inserted (%s)", phantom, firstDetail))
	}
	if mismatch > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"conservation: %d deletions returned a corrupted key (%s)", mismatch, firstDetail))
	}
	if dup > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"conservation: %d items deleted twice (%s)", dup, firstDetail))
	}
	if lost > 0 {
		r.Violations = append(r.Violations, fmt.Sprintf(
			"conservation: %d of %d items lost — inserted, never deleted, unreachable after flush+drain (%s)",
			lost, totalInserted, firstLost))
	}
}

// String renders a one-line verdict row plus indented violation lines.
func (r CheckResult) String() string {
	verdict := "PASS"
	if r.Failed() {
		verdict = "FAIL"
	}
	boundStr := "(none)"
	if r.Kind != quality.BoundNone {
		boundStr = fmt.Sprint(r.Bound)
	}
	s := fmt.Sprintf("%-14s ins=%-8d del=%-8d drained=%-7d maxrank=%-8d definite=%-6d bound=%-8s inj=%-6d %s",
		r.Name, r.Inserts, r.Deletions, r.Drained, r.Quality.MaxRank, r.Quality.MaxDefinite, boundStr,
		r.Injected.TotalHits(), verdict)
	if r.PoolCreated > 0 {
		s += fmt.Sprintf("  [pool peak=%d created=%d]", r.PoolPeakLive, r.PoolCreated)
	}
	for _, v := range r.Violations {
		s += "\n    " + v
	}
	return s
}
