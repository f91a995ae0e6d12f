package durable_test

import (
	"strings"
	"sync"
	"testing"

	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
	"cpq/internal/rng"
)

// walReads counts the reads of each WAL segment key.
type walReads struct {
	kv.Store
	mu    sync.Mutex
	reads map[string]int
}

func (s *walReads) Get(key string) ([]byte, bool, error) {
	if strings.HasPrefix(key, "wal/") {
		s.mu.Lock()
		s.reads[key]++
		s.mu.Unlock()
	}
	return s.Store.Get(key)
}

// TestFirstSnapshotSkipsRecoveredSegments: recovery hands the snapshotter
// the recovered set as its base, so the first snapshot after a restart
// folds only the segments the new process wrote, and its part holds the
// recovered set plus the new operations.
func TestFirstSnapshotSkipsRecoveredSegments(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: store, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 200; i++ {
		h.Insert(i, i)
	}
	if err := q.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(200); i < 300; i++ {
		h.Insert(i, i)
	}
	for i := 0; i < 50; i++ {
		h.DeleteMin()
	}
	// Abandon q without Close: the crash.
	recovered, err := store.List("wal/")
	if err != nil {
		t.Fatal(err)
	}
	want, err := durable.ReplayStore(store)
	if err != nil || len(want) != 250 {
		t.Fatalf("crashed store replays %d items (err %v), want 250", len(want), err)
	}

	reads := &walReads{Store: store, reads: map[string]int{}}
	r, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: reads, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	clear(reads.reads) // recovery itself reads every recovered segment
	rh := r.Handle()
	for i := uint64(1000); i < 1040; i++ {
		rh.Insert(i, i)
		want = append(want, pq.KV{Key: i, Value: i})
	}
	for i := 0; i < 20; i++ {
		k, v, ok := rh.DeleteMin()
		if !ok {
			t.Fatal("queue empty early")
		}
		want = removeOne(t, want, pq.KV{Key: k, Value: v})
	}
	if err := r.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, k := range recovered {
		if n := reads.reads[k]; n > 0 {
			t.Errorf("the first snapshot after the restart read recovered segment %s %d times", k, n)
		}
	}

	// The snapshot alone — manifest and part, without the WAL — replays
	// to its part's contents.
	snap := kv.NewInmem()
	err = snap.Update(func(tx kv.Tx) error {
		for _, pfx := range []string{"manifest/", "part/"} {
			keys, err := store.List(pfx)
			if err != nil {
				return err
			}
			for _, k := range keys {
				v, _, err := store.Get(k)
				if err != nil {
					return err
				}
				tx.Set(k, v)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	part, err := durable.ReplayStore(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !equalSets(part, want) {
		t.Fatalf("the snapshot's part holds %d items, want the %d recovered and new ones", len(part), len(want))
	}
}

// removeOne takes one occurrence of it out of items.
func removeOne(t *testing.T, items []pq.KV, it pq.KV) []pq.KV {
	t.Helper()
	for i, x := range items {
		if x == it {
			return append(items[:i], items[i+1:]...)
		}
	}
	t.Fatalf("deleted %+v, which is not live", it)
	return nil
}

// BenchmarkRecover times a restart over a crashed store that is already
// open: Wrap's replay and the inner-queue rebuild. snapshot-tail has the
// shape of the crashed store bench/'s net-durable workload recovers:
// 200k items under a snapshot and a 100k-item WAL tail. churn-tail is
// the shape a SnapshotEvery of 0 leaves (pqd's default): no snapshot and
// a WAL of 1M 50/50 churn operations, in batches of 8, over about 1k
// live items.
func BenchmarkRecover(b *testing.B) {
	b.Run("snapshot-tail", func(b *testing.B) {
		benchRecover(b, func(q *durable.Queue, l *loader) {
			l.insert(200_000, 1024)
			if err := q.Snapshot(); err != nil {
				b.Fatal(err)
			}
			l.insert(100_000, 1024)
		})
	})
	b.Run("churn-tail", func(b *testing.B) {
		benchRecover(b, func(q *durable.Queue, l *loader) {
			l.insert(1024, 8)
			for ops := 0; ops < 1<<20; ops += 16 {
				l.insert(8, 8)
				pq.DeleteMinN(l.h, l.kvs, 8)
			}
		})
	})
}

// loader logs uniform 32-bit keys with distinct values through a durable
// handle, one InsertN (one WAL record) per batch.
type loader struct {
	h   pq.Handle
	r   *rng.Xoroshiro
	kvs []pq.KV
	n   uint64
}

func (l *loader) insert(count, batch int) {
	for ; count > 0; count -= batch {
		kvs := l.kvs[:min(count, batch)]
		for i := range kvs {
			l.n++
			kvs[i] = pq.KV{Key: uint64(l.r.Uint32()), Value: l.n}
		}
		pq.InsertN(l.h, kvs)
	}
}

// benchRecover builds a crashed store with fill, then times its recovery.
func benchRecover(b *testing.B, fill func(*durable.Queue, *loader)) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(b, "multiq-s4-b8"), durable.Options{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	fill(q, &loader{h: q.Handle(), r: rng.New(1), kvs: make([]pq.KV, 1024)})
	if err := q.Err(); err != nil {
		b.Fatal(err)
	}
	// No q.Close: it would snapshot the WAL tail away.
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := durable.Wrap(newInner(b, "multiq-s4-b8"), durable.Options{Store: store}); err != nil {
			b.Fatal(err)
		}
	}
}
