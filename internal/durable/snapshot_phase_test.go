package durable_test

import (
	"sync"
	"testing"
	"time"

	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// TestCrashAtSnapshotPhases clones the store at every phase boundary of
// the concurrent snapshot — begin marker appended, first chunk written,
// chunks synced but manifest not yet committed, manifest committed but
// WAL not yet truncated — while producers keep logging. Every capture is
// a legal crash image: replay must succeed and yield only items the
// workers genuinely produced, each at most once. This is the proof that
// the manifest commit point makes each phase atomic-or-invisible.
func TestCrashAtSnapshotPhases(t *testing.T) {
	const (
		workers      = 4
		opsPerWorker = 400
		perPhaseCap  = 8
	)
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{
		Store:         store,
		SnapshotEvery: 300,
		SegmentBytes:  1 << 12, // small segments: snapshots fold several
	})
	if err != nil {
		t.Fatal(err)
	}
	captures := make(map[durable.SnapPhase][]*kv.Inmem)
	var capMu sync.Mutex
	q.SetSnapHook(func(p durable.SnapPhase) {
		capMu.Lock()
		defer capMu.Unlock()
		if len(captures[p]) < perPhaseCap {
			captures[p] = append(captures[p], cloneInmem(t, store))
		}
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := q.Handle()
			for i := 0; i < opsPerWorker; i++ {
				if i%4 == 3 {
					h.DeleteMin()
				} else {
					v := uint64(w)<<32 | uint64(i)
					h.Insert(v*2654435761%1_000_003, v)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	phases := []durable.SnapPhase{
		durable.SnapBegin, durable.SnapChunk,
		durable.SnapPreManifest, durable.SnapPostManifest,
	}
	for _, p := range phases {
		if len(captures[p]) == 0 {
			t.Fatalf("phase %d: no captures; raise traffic or lower SnapshotEvery", p)
		}
	}
	for _, p := range phases {
		for i, cap := range captures[p] {
			items, err := durable.ReplayStore(cap)
			if err != nil {
				t.Fatalf("phase %d capture %d: replay failed: %v", p, i, err)
			}
			seen := make(map[pq.KV]bool, len(items))
			for _, it := range items {
				w, seq := it.Value>>32, it.Value&0xffffffff
				if w >= workers || seq >= opsPerWorker || seq%4 == 3 {
					t.Fatalf("phase %d capture %d: phantom item %+v", p, i, it)
				}
				if seen[it] {
					t.Fatalf("phase %d capture %d: item %+v replayed twice", p, i, it)
				}
				seen[it] = true
			}
		}
		t.Logf("phase %d: %d captures replayed cleanly", p, len(captures[p]))
	}
}

// TestSnapshotDoesNotStallProducers parks a snapshot indefinitely at
// SnapPreManifest — chunks written, manifest pending — and proves the
// logging fast path stays open: producers complete a full round of
// acknowledged inserts while the snapshot is frozen mid-flight. Under
// the old seal→drain→write protocol this test deadlocks.
func TestSnapshotDoesNotStallProducers(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{
		Store:         store,
		SnapshotEvery: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	parked := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	q.SetSnapHook(func(p durable.SnapPhase) {
		if p == durable.SnapPreManifest {
			once.Do(func() {
				close(parked)
				<-release // hold the snapshot here; later snapshots pass
			})
		}
	})

	h := q.Handle()
	// Drive past the cadence so a background snapshot triggers and parks.
	for i := 0; i < 400; i++ {
		h.Insert(uint64(i), uint64(i))
	}
	select {
	case <-parked:
	case <-time.After(10 * time.Second):
		t.Fatal("no snapshot reached SnapPreManifest within 10s")
	}

	// The snapshot is frozen mid-flight. Every insert below must commit
	// through the WAL anyway; the watchdog converts a stall into a
	// failure instead of a test timeout.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			h.Insert(uint64(1_000_000+i), uint64(i))
		}
	}()
	select {
	case <-done:
	case <-time.After(15 * time.Second):
		close(release)
		t.Fatal("producers stalled behind a parked snapshot")
	}
	close(release)
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
