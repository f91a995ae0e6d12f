package main

import (
	"sync"
	"sync/atomic"
	"time"

	"cpq"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/rng"
)

// runInProcess sets up and measures one instance of a queue called
// directly by the load goroutines: no socket and no log, so the queue
// substrate does nearly all the work.
func runInProcess(ph *phase, w workloadSpec, cfg config, seed uint64, tr *tracer, d time.Duration) error {
	var q pq.Queue
	var base ledger
	err := ph.timeSetup(func() error {
		inner, err := cpq.NewQueue(w.queue, cpq.Options{Threads: workers})
		if err != nil {
			return err
		}
		q = tr.queue(cfg.queue(inner), spanQueue)
		base = prefill(q, w.keys, cfg.sizes.prefill, seed)
		return nil
	})
	if err != nil {
		return err
	}
	defer pq.Close(q)

	ls := newLoaders(w, seed)
	for _, l := range ls {
		l.h = q.Handle()
	}
	var full func() bool
	if w.split {
		// The inserter pauses while the queue holds twice the prefill, so
		// an inserter faster than the deleter cannot grow the queue (and
		// the process) without bound. Throughput is then twice the rate of
		// the slower side, whichever it is.
		full = func() bool {
			return base.n+ls[0].moved.Load()-ls[1].moved.Load() >= 2*uint64(cfg.sizes.prefill)
		}
	}
	ph.measure(d, ls, tr, func(l *loader, stop *atomic.Bool) { l.callQueue(full, stop) }, nil)
	ins, del := totals(ls)
	ph.conserve("conservation (prefill + inserted = deleted + drained)", base.plus(ins), del.plus(drain(q)))
	return nil
}

// prefill inserts n items from two goroutines, in batches, and returns
// their ledger.
func prefill(q pq.Queue, dist keys.Distribution, n int, seed uint64) ledger {
	var wg sync.WaitGroup
	parts := make([]ledger, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h := q.Handle()
			gen := keys.NewGenerator(dist, rng.New(seed^uint64(w+1)*0xbf58476d1ce4e5b9))
			kvs := make([]pq.KV, batch)
			left := n / workers
			if w == 0 {
				left += n % workers
			}
			for req := uint64(0); left > 0; req++ {
				k := min(batch, left)
				fillBatch(kvs[:k], gen, prefillConn+uint64(w), req)
				parts[w].add(kvs[:k])
				pq.InsertN(h, kvs[:k])
				left -= k
			}
			pq.Flush(h)
		}()
	}
	wg.Wait()
	return parts[0].plus(parts[1])
}

// callQueue is one round of a load goroutine: batches of inserts and
// deletes per the workload's policy until stop, timing every
// sampleEvery-th call. When full is set, inserts wait while it is true.
func (l *loader) callQueue(full func() bool, stop *atomic.Bool) {
	moved := l.moved.Load()
	for !stop.Load() {
		req := l.req
		l.req++
		sample := req%sampleEvery == 0
		l.attempted += batch
		var t0 time.Time
		op := opOf(l.policy.Next())
		if op == opInsert {
			if full != nil && req%64 == 0 {
				for full() && !stop.Load() {
					time.Sleep(100 * time.Microsecond)
				}
			}
			fillBatch(l.kvs, l.gen, l.conn, req)
			l.ins.add(l.kvs)
			if sample {
				t0 = time.Now()
			}
			pq.InsertN(l.h, l.kvs)
			moved += batch
		} else {
			if sample {
				t0 = time.Now()
			}
			got := pq.DeleteMinN(l.h, l.kvs, batch)
			l.del.add(l.kvs[:got])
			moved += uint64(got)
		}
		if sample {
			l.lat[op] = append(l.lat[op], nsSample(time.Since(t0)))
		}
		l.moved.Store(moved)
	}
	pq.Flush(l.h)
}

// drain empties a quiescent queue through a fresh handle.
func drain(q pq.Queue) ledger {
	h := q.Handle()
	buf := make([]pq.KV, netpq.MaxBatch)
	var l ledger
	for {
		got := pq.DeleteMinN(h, buf, len(buf))
		if got == 0 {
			break
		}
		l.add(buf[:got])
	}
	pq.Flush(h)
	return l
}
