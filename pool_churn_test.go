package cpq

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"cpq/internal/quality"
)

// TestPoolChurn drives real registry queues through the handle pool with
// short-lived goroutines, and asserts the promises of the handle-lifecycle
// design: the pool never grows past its cap, no item is lost across the
// handles' trips through the pool (conservation through Release's flush
// and the k-LSM's spy path), and the relaxation bound reported for the run
// is quality.ClaimedBound at the pool's dynamic handle count rather than a
// frozen Options.Threads. Runs under -race in the make check matrix.
func TestPoolChurn(t *testing.T) {
	for _, name := range []string{"klsm128", "multiq-s4-b8", "linden"} {
		t.Run(name, func(t *testing.T) {
			const (
				slots      = 4
				goroutines = 140
				burst      = 50
			)
			q, err := NewQueue(name, Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			pool := NewPool(q, PoolOptions{MaxHandles: slots + 1})

			var inserted, deleted atomic.Uint64
			var wg sync.WaitGroup
			for s := 0; s < slots; s++ {
				wg.Add(1)
				go func(s int) {
					defer wg.Done()
					done := make(chan struct{})
					for g := s; g < goroutines; g += slots {
						key := uint64(g) * uint64(burst)
						go func() {
							h := pool.Acquire()
							for i := 0; i < burst; i++ {
								if i%2 == 0 {
									h.Insert(key+uint64(i), uint64(g))
									inserted.Add(1)
								} else if _, _, ok := h.DeleteMin(); ok {
									deleted.Add(1)
								}
							}
							pool.Release(h)
							done <- struct{}{}
						}()
						<-done
					}
				}(s)
			}
			wg.Wait()

			if live := pool.Live(); live != 0 {
				t.Fatalf("Live = %d after all releases, want 0", live)
			}
			if created := pool.Created(); created > slots+1 {
				t.Fatalf("Created = %d, want <= cap %d (the pool must recycle, not grow)", created, slots+1)
			}

			// Conservation: a fresh handle drains everything the churned
			// goroutines left behind, including items their handles
			// buffered until Release. Emptiness is retried a few times: relaxed queues may
			// need more than one sweep to conclude empty.
			drain := pool.Acquire()
			var drained uint64
			for misses := 0; misses < 20; {
				if _, _, ok := drain.DeleteMin(); ok {
					drained++
					misses = 0
				} else {
					misses++
					runtime.Gosched()
				}
			}
			pool.Release(drain)
			if inserted.Load() != deleted.Load()+drained {
				t.Fatalf("conservation: inserted %d != deleted %d + drained %d",
					inserted.Load(), deleted.Load(), drained)
			}

			// Dynamic bound: the claimed bound for this run is judged at the
			// pool's handle accounting, not a frozen construction-time P.
			effP := quality.EffectiveP(name, pool.PeakLive(), pool.Created())
			bound, kind := quality.ClaimedBound(name, effP)
			switch name {
			case "klsm128":
				// Structural relaxation: every handle ever created keeps its
				// local component, so created governs.
				if effP != pool.Created() {
					t.Fatalf("EffectiveP = %d, want created %d", effP, pool.Created())
				}
				if kind != quality.BoundRelaxed || bound != 128*pool.Created() {
					t.Fatalf("ClaimedBound = %d (%s), want %d (%s)",
						bound, kind, 128*pool.Created(), quality.BoundRelaxed)
				}
			case "multiq-s4-b8":
				if kind != quality.BoundNone {
					t.Fatalf("ClaimedBound kind = %s, want %s", kind, quality.BoundNone)
				}
			case "linden":
				// Buffer-only relaxation (none): peak concurrency governs,
				// so the bound SHRANK back to strict once handles drained.
				if effP != pool.PeakLive() {
					t.Fatalf("EffectiveP = %d, want peakLive %d", effP, pool.PeakLive())
				}
				if kind != quality.BoundStrict || bound != 0 {
					t.Fatalf("ClaimedBound = %d (%s), want 0 (%s)",
						bound, kind, quality.BoundStrict)
				}
			}
		})
	}
}
