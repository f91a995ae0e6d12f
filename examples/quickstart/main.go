// Quickstart: construct each queue in the suite, use it from several
// goroutines through per-goroutine handles, and inspect the relaxation
// behaviour of strict vs. relaxed designs.
package main

import (
	"fmt"
	"sort"
	"sync"

	"cpq"
)

func main() {
	// --- Basic single-goroutine use -----------------------------------
	q := cpq.NewKLSM(256) // relaxed: DeleteMin returns one of the k·P smallest
	defer cpq.Close(q)    // nil-safe: a no-op unless the queue holds resources
	h := q.Handle()       // one handle per goroutine
	for _, key := range []uint64{42, 7, 99, 13} {
		h.Insert(key, key*100) // (priority, payload)
	}
	fmt.Println("k-LSM drain (relaxed, single handle ⇒ strict here):")
	for {
		key, value, ok := h.DeleteMin()
		if !ok {
			break
		}
		fmt.Printf("  key=%-3d value=%d\n", key, value)
	}

	// --- Every implementation through the registry --------------------
	fmt.Println("\nAll implementations, same workload:")
	for _, name := range cpq.Names() {
		q, err := cpq.NewQueue(name, cpq.Options{Threads: 4}) // intended concurrent handles
		if err != nil {
			panic(err)
		}
		h := q.Handle()
		for k := uint64(5); k > 0; k-- {
			h.Insert(k, 0)
		}
		first, _, _ := h.DeleteMin()
		fmt.Printf("  %-10s first DeleteMin after inserting 5..1: %d\n", q.Name(), first)
		cpq.Close(q)
	}

	// --- Concurrent producers and consumers ---------------------------
	const producers, consumers, perProducer = 4, 4, 10_000
	mq := cpq.NewMultiQueue(4, producers+consumers)
	var wg sync.WaitGroup
	consumed := make([][]uint64, consumers)
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := mq.Handle()
			for i := 0; i < perProducer; i++ {
				h.Insert(uint64(p*perProducer+i), uint64(p))
			}
		}(p)
	}
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h := mq.Handle()
			for len(consumed[c]) < perProducer {
				if k, _, ok := h.DeleteMin(); ok {
					consumed[c] = append(consumed[c], k)
				}
			}
		}(c)
	}
	wg.Wait()
	var all []uint64
	for _, c := range consumed {
		all = append(all, c...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	fmt.Printf("\nMultiQueue: %d items consumed by %d goroutines, min=%d max=%d\n",
		len(all), consumers, all[0], all[len(all)-1])

	// Relaxed queues trade ordering precision for scalability: measure how
	// far the concurrent consumption order strayed from sorted order.
	inversions := 0
	var flat []uint64
	for _, c := range consumed {
		flat = append(flat, c...)
	}
	for i := 1; i < len(flat); i++ {
		if flat[i] < flat[i-1] {
			inversions++
		}
	}
	fmt.Printf("local order inversions across consumers: %d of %d (relaxation at work)\n",
		inversions, len(flat)-1)

	// --- Short-lived goroutines: the handle pool ----------------------
	// One handle per goroutine stops making sense when goroutines are
	// request-shaped (many, short). The pool recycles a few real handles
	// through any number of goroutines. Release is mandatory, like
	// Unlock: it flushes the handle's buffers before the next goroutine
	// gets it (DESIGN.md §4d).
	pq, err := cpq.NewQueue("klsm256", cpq.Options{Threads: 1}) // pool sizes it
	if err != nil {
		panic(err)
	}
	pool := cpq.NewPool(pq, cpq.PoolOptions{})
	const requests = 1000
	done := make(chan struct{})
	for r := 0; r < requests; r++ {
		go func(r int) {
			h := pool.Acquire()
			h.Insert(uint64(r), 0)
			h.DeleteMin()
			pool.Release(h)
			done <- struct{}{}
		}(r)
		<-done
	}
	fmt.Printf("\npool: %d request goroutines served by %d real handles\n",
		requests, pool.Created())
	// Close flushes the pooled handles, then closes the queue; it fails if
	// a handle is still acquired.
	if err := pool.Close(); err != nil {
		panic(err)
	}
}
