package durable_test

import (
	"testing"

	"cpq"
	"cpq/internal/chaos"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// TestChaosCheckDurable runs the suite's chaos invariant checker over
// durable-wrapped queues: workers under fault injection (including the
// wal-fsync perturbation at the worst commit window), abandonment,
// logged drain, forensics. On top of the checker's own invariants, the
// store must replay to exactly what the drain recovered — conservation
// through the WAL, not just through the structure.
func TestChaosCheckDurable(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos check is seconds-long; skipped in -short")
	}
	for _, fam := range families {
		t.Run(fam, func(t *testing.T) {
			store := kv.NewInmem()
			var dq *durable.Queue
			res := chaos.Check(chaos.CheckConfig{
				Name: "dur:" + fam,
				NewQueue: func(threads int) pq.Queue {
					inner, err := cpq.NewQueue(fam, cpq.Options{Threads: threads})
					if err != nil {
						t.Fatalf("NewQueue(%s): %v", fam, err)
					}
					q, err := durable.Wrap(inner, durable.Options{
						Store:         store,
						SnapshotEvery: 4000,
						SegmentBytes:  1 << 14,
					})
					if err != nil {
						t.Fatalf("Wrap: %v", err)
					}
					dq = q
					return q
				},
				Threads:      4,
				OpsPerThread: 1500,
				OpBatch:      8,
				Seed:         7,
			})
			if res.Failed() {
				t.Fatalf("durable %s failed chaos check (seed %d):\n%s", fam, res.Seed, res)
			}
			if res.Injected.Hits[chaos.WALFsync] == 0 {
				t.Fatalf("wal-fsync failpoint never hit: %+v", res.Injected.Hits)
			}
			if err := dq.Err(); err != nil {
				t.Fatalf("durable queue error after chaos: %v", err)
			}
			// The checker drained the queue to empty; the WAL agrees or the
			// log lied about an operation.
			replayed, err := durable.ReplayStore(store)
			if err != nil {
				t.Fatalf("ReplayStore: %v", err)
			}
			if len(replayed) != 0 {
				t.Fatalf("checker drained the queue but the store replays %d live items", len(replayed))
			}
		})
	}
}

// dumpStore reads every key's full contents — the byte-level identity of
// a store.
func dumpStore(t *testing.T, store kv.Store) map[string]string {
	t.Helper()
	keys, err := store.List("")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	out := make(map[string]string, len(keys))
	for _, k := range keys {
		v, _, err := store.Get(k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		out[k] = string(v)
	}
	return out
}

// TestChaosSeedReplayIdentical reruns the same seeded chaos check against
// two fresh stores and requires byte-identical persisted state: the
// injected decision sequence, the operations, the logged records, the
// segmentation and the final snapshot must all reproduce exactly. (Note
// this is single-threaded determinism at the store level only because the
// checker drains and closes the queue; mid-flight record order under real
// concurrency is schedule-dependent by design.)
func TestChaosSeedReplayIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos check is seconds-long; skipped in -short")
	}
	run := func() (map[string]string, uint64, chaos.CheckResult) {
		store := kv.NewInmem()
		var dq *durable.Queue
		res := chaos.Check(chaos.CheckConfig{
			Name: "dur:linden",
			NewQueue: func(threads int) pq.Queue {
				inner, err := cpq.NewQueue("linden", cpq.Options{Threads: threads})
				if err != nil {
					t.Fatal(err)
				}
				q, err := durable.Wrap(inner, durable.Options{Store: store})
				if err != nil {
					t.Fatal(err)
				}
				dq = q
				return q
			},
			Threads:      2,
			OpsPerThread: 800,
			Seed:         1234,
		})
		return dumpStore(t, store), dq.Stats().Records, res
	}
	dumpA, recsA, resA := run()
	dumpB, recsB, resB := run()
	if resA.Failed() || resB.Failed() {
		t.Fatalf("chaos check failed:\n%s\n%s", resA, resB)
	}
	if recsA != recsB {
		t.Fatalf("same seed logged %d vs %d WAL records", recsA, recsB)
	}
	if len(dumpA) != len(dumpB) {
		t.Fatalf("same seed left %d vs %d store keys", len(dumpA), len(dumpB))
	}
	for k, va := range dumpA {
		if vb, ok := dumpB[k]; !ok || va != vb {
			t.Fatalf("same seed, store key %s differs between runs", k)
		}
	}
}
