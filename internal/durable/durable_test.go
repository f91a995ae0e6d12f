package durable_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// families exercised by the recovery tests: a relaxed LSM, an engineered
// MultiQueue (buffered handles), and a strict skiplist.
var families = []string{"klsm128", "multiq-s4-b8", "linden"}

func newInner(t testing.TB, name string) pq.Queue {
	t.Helper()
	q, err := cpq.NewQueue(name, cpq.Options{Threads: 4})
	if err != nil {
		t.Fatalf("NewQueue(%s): %v", name, err)
	}
	return q
}

// drain empties q through one handle and returns the sorted live set.
func drain(t testing.TB, q pq.Queue) []pq.KV {
	t.Helper()
	h := q.Handle()
	pq.Flush(h)
	var out []pq.KV
	buf := make([]pq.KV, 1024)
	for {
		got := pq.DeleteMinN(h, buf, len(buf))
		if got == 0 {
			break
		}
		out = append(out, buf[:got]...)
	}
	pq.SortKVs(out)
	return out
}

func sortedCopy(kvs []pq.KV) []pq.KV {
	cp := make([]pq.KV, len(kvs))
	copy(cp, kvs)
	pq.SortKVs(cp)
	return cp
}

func equalSets(a, b []pq.KV) bool {
	if len(a) != len(b) {
		return false
	}
	ca, cb := map[pq.KV]int{}, map[pq.KV]int{}
	for _, x := range a {
		ca[x]++
	}
	for _, x := range b {
		cb[x]++
	}
	if len(ca) != len(cb) {
		return false
	}
	for k, n := range ca {
		if cb[k] != n {
			return false
		}
	}
	return true
}

// TestRecoveryRoundTrip crashes (abandons) a durable queue mid-life and
// proves a fresh wrapper over the same store reconstructs the exact live
// multiset, for each queue family: once from the WAL alone, and once
// from a snapshot plus the WAL tail logged after it.
func TestRecoveryRoundTrip(t *testing.T) {
	for _, fam := range families {
		t.Run(fam, func(t *testing.T) {
			for _, snapshot := range []bool{false, true} {
				store := kv.NewInmem()
				q, err := durable.Wrap(newInner(t, fam), durable.Options{Store: store})
				if err != nil {
					t.Fatal(err)
				}
				h := q.Handle()
				var want []pq.KV
				for i := uint64(0); i < 500; i++ {
					if snapshot && i == 250 {
						if err := q.Snapshot(); err != nil {
							t.Fatal(err)
						}
					}
					h.Insert(i, i*10)
					want = append(want, pq.KV{Key: i, Value: i * 10})
				}
				// Delete some; what comes out leaves the expected set.
				buf := make([]pq.KV, 128)
				got := pq.DeleteMinN(h, buf, 128)
				if got == 0 {
					t.Fatal("DeleteMinN returned nothing from a full queue")
				}
				live := map[pq.KV]int{}
				for _, kv := range want {
					live[kv]++
				}
				for _, kv := range buf[:got] {
					if live[kv] == 0 {
						t.Fatalf("deleted item %+v was never inserted", kv)
					}
					live[kv]--
				}
				var expect []pq.KV
				for kv, n := range live {
					for j := 0; j < n; j++ {
						expect = append(expect, kv)
					}
				}
				if err := q.Err(); err != nil {
					t.Fatalf("queue error: %v", err)
				}
				// Abandon q without Close — the crash. The store holds
				// everything a real process would have on disk.
				r, err := durable.Wrap(newInner(t, fam), durable.Options{Store: store})
				if err != nil {
					t.Fatalf("snapshot=%v: recover: %v", snapshot, err)
				}
				recovered := drain(t, r)
				if !equalSets(recovered, expect) {
					t.Fatalf("snapshot=%v: recovered %d items, want %d — conservation violated",
						snapshot, len(recovered), len(expect))
				}
			}
		})
	}
}

// TestSnapshotTruncatesWAL drives enough operations through a small
// SnapshotEvery that background snapshots must fire and truncate
// segments, then proves recovery still reconstructs the live set from
// the manifest base + tail.
func TestSnapshotTruncatesWAL(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{
		Store:         store,
		SnapshotEvery: 100,
		SegmentBytes:  512,
	})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 1000; i++ {
		h.Insert(i, i)
	}
	// Snapshots run on background goroutines; quiesce, then check at
	// least one completed (overlapping triggers legally skip).
	q.DrainSnapshots()
	if q.Stats().Snapshots == 0 {
		t.Fatal("no background snapshot completed despite SnapshotEvery=100")
	}
	// One explicit snapshot quiesces the state deterministically: after
	// it, everything below the newest cut is truncated.
	if err := q.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	segs, err := store.List("wal/")
	if err != nil {
		t.Fatal(err)
	}
	// 1000 inserts at ~31 bytes/record with 512-byte segments would be
	// dozens of segments; truncation must have kept only the tail.
	if len(segs) > 10 {
		t.Fatalf("%d WAL segments survive snapshotting — truncation not working", len(segs))
	}
	manifests, err := store.List("manifest/")
	if err != nil {
		t.Fatal(err)
	}
	if len(manifests) != 1 {
		t.Fatalf("%d manifests in store, want exactly 1 (old ones truncated)", len(manifests))
	}

	r, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{Store: store})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	recovered := drain(t, r)
	if len(recovered) != 1000 {
		t.Fatalf("recovered %d items, want 1000", len(recovered))
	}
	for i, kv := range recovered {
		if kv.Key != uint64(i) || kv.Value != uint64(i) {
			t.Fatalf("recovered[%d] = %+v, want {%d %d}", i, kv, i, i)
		}
	}
}

// TestAckedDeleteNeverResurrects pins the DeleteMin contract: once
// DeleteMin returns an item, a recovery must not bring it back.
func TestAckedDeleteNeverResurrects(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 100; i++ {
		h.Insert(i, i)
	}
	deleted := map[uint64]bool{}
	for i := 0; i < 40; i++ {
		k, _, ok := h.DeleteMin()
		if !ok {
			t.Fatal("queue empty early")
		}
		deleted[k] = true
	}
	r, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	for _, kv := range drain(t, r) {
		if deleted[kv.Key] {
			t.Fatalf("acknowledged delete of key %d resurrected by recovery", kv.Key)
		}
	}
}

// slowSync adds realistic fsync latency to an in-memory store so commit
// cohorts actually form (a real disk's fsync is what group commit
// amortizes; Inmem's is free).
type slowSync struct {
	*kv.Inmem
	d time.Duration
}

func (s *slowSync) Sync() error {
	time.Sleep(s.d)
	return s.Inmem.Sync()
}

// TestGroupCommitConserves hammers one durable queue from 8 producers and
// checks (a) exact conservation through a post-crash replay and (b) that
// group commit actually grouped: fewer fsyncs than records.
func TestGroupCommitConserves(t *testing.T) {
	store := &slowSync{Inmem: kv.NewInmem(), d: 200 * time.Microsecond}
	q, err := durable.Wrap(newInner(t, "multiq-s4-b8"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	const (
		producers = 8
		perProd   = 300
	)
	inserted := make([][]pq.KV, producers)
	removed := make([][]pq.KV, producers)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			h := q.Handle()
			buf := make([]pq.KV, 4)
			for i := 0; i < perProd; i++ {
				key := uint64(p*perProd + i)
				h.Insert(key, key^0xabcd)
				inserted[p] = append(inserted[p], pq.KV{Key: key, Value: key ^ 0xabcd})
				if i%5 == 4 {
					got := pq.DeleteMinN(h, buf, 2)
					removed[p] = append(removed[p], buf[:got]...)
				}
			}
		}(p)
	}
	wg.Wait()
	if err := q.Err(); err != nil {
		t.Fatalf("queue error: %v", err)
	}
	st := q.Stats()
	if st.Records == 0 || st.Fsyncs == 0 {
		t.Fatalf("implausible stats: %+v", st)
	}
	if st.Fsyncs*2 >= st.Records {
		t.Errorf("group commit did not group: %d fsyncs for %d records", st.Fsyncs, st.Records)
	}
	t.Logf("stats: %+v (%.3f fsyncs/record)", st, float64(st.Fsyncs)/float64(st.Records))

	// All inserts first, then all removals — a producer may well pop an
	// item some other producer inserted.
	live := map[pq.KV]int{}
	for p := 0; p < producers; p++ {
		for _, kv := range inserted[p] {
			live[kv]++
		}
	}
	for p := 0; p < producers; p++ {
		for _, kv := range removed[p] {
			live[kv]--
			if live[kv] < 0 {
				t.Fatalf("removed item %+v more times than inserted", kv)
			}
		}
	}
	var expect []pq.KV
	for kv, n := range live {
		for j := 0; j < n; j++ {
			expect = append(expect, kv)
		}
	}
	// Crash-replay the store (read-only forensic path) and compare.
	replayed, err := durable.ReplayStore(store)
	if err != nil {
		t.Fatalf("ReplayStore: %v", err)
	}
	if !equalSets(replayed, sortedCopy(expect)) {
		t.Fatalf("replay has %d items, caller accounting says %d — conservation violated",
			len(replayed), len(expect))
	}
}

// TestCloseIsIdempotentAndFinal: Close snapshots, a reopen recovers from
// the compact store, double Close is safe, ops after Close are no-ops.
func TestCloseIsIdempotentAndFinal(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 50; i++ {
		h.Insert(i, i)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := q.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	h.Insert(999, 999) // must be silently ignored
	if _, _, ok := h.DeleteMin(); ok {
		t.Fatal("DeleteMin succeeded after Close")
	}
	// Close's final snapshot leaves an empty WAL tail.
	segs, _ := store.List("wal/")
	for _, k := range segs {
		if v, ok, _ := store.Get(k); ok && len(v) > 0 {
			t.Fatalf("segment %s still has %d bytes after Close's snapshot", k, len(v))
		}
	}
	r, err := durable.Wrap(newInner(t, "klsm128"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(t, r); len(got) != 50 {
		t.Fatalf("recovered %d items after Close, want 50", len(got))
	}
	var _ pq.Closer = q // compile-time: durable.Queue implements pq.Closer
	if err := pq.Close(r); err != nil {
		t.Fatalf("pq.Close: %v", err)
	}
}

// TestDirOpenedStoreRecovery runs the round trip against the disk store
// Wrap opens from Options.Dir — the same path pqd's -durable flag uses.
func TestDirOpenedStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	q, err := durable.Wrap(newInner(t, "linden"), durable.Options{Dir: dir, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 300; i++ {
		h.Insert(i, i*3)
	}
	pq.Flush(h) // barrier: everything durable
	// Abandon without Close (crash); the next open must replay the dir.
	r, err := durable.Wrap(newInner(t, "linden"), durable.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recover from dir: %v", err)
	}
	got := drain(t, r)
	if len(got) != 300 {
		t.Fatalf("recovered %d items from the Dir-opened store, want 300", len(got))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestPlainFileLayoutRecovers pins that no on-disk data is stranded: a
// directory in the older O_APPEND layout — one plain file per key, WAL
// segments and snapshot parts included, no "@seg" segment files — still
// recovers every item through Options.Dir, because the disk store reads
// the plain file of any key that has no segment.
func TestPlainFileLayoutRecovers(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: store, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 200; i++ {
		h.Insert(i, i*3)
	}
	if err := q.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for i := uint64(200); i < 300; i++ {
		h.Insert(i, i*3)
	}
	for i := 0; i < 50; i++ {
		h.DeleteMin()
	}
	want, err := durable.ReplayStore(store)
	if err != nil || len(want) != 250 {
		t.Fatalf("source store replays %d items (err %v), want 250", len(want), err)
	}

	dir := t.TempDir()
	keys, err := store.List("")
	if err != nil {
		t.Fatal(err)
	}
	prefixes := map[string]bool{}
	for _, k := range keys {
		v, _, err := store.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		prefixes[k[:strings.IndexByte(k, '/')]] = true
		name := strings.ReplaceAll(k, "/", "%2f") // the store's file-name escaping
		if err := os.WriteFile(filepath.Join(dir, name), v, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if !prefixes["wal"] || !prefixes["part"] || !prefixes["manifest"] {
		t.Fatalf("fixture lacks a key family: %v", keys)
	}

	r, err := durable.Wrap(newInner(t, "linden"), durable.Options{Dir: dir})
	if err != nil {
		t.Fatalf("recover the plain-file layout: %v", err)
	}
	if got := drain(t, r); !equalSets(got, want) {
		t.Fatalf("recovered %d items from the plain-file layout, want %d", len(got), len(want))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayDeterminism: two independent replays of the same store must
// serialize identically — the byte-identical property the kill harness
// asserts across a copied directory.
func TestReplayDeterminism(t *testing.T) {
	store := kv.NewInmem()
	q, err := durable.Wrap(newInner(t, "multiq-s4-b8"), durable.Options{Store: store, SnapshotEvery: 64})
	if err != nil {
		t.Fatal(err)
	}
	h := q.Handle()
	for i := uint64(0); i < 400; i++ {
		h.Insert(i*7%401, i)
		if i%3 == 0 {
			h.DeleteMin()
		}
	}
	// ReplayStore is a forensic read over a quiescent store; wait out any
	// in-flight background snapshot before reading.
	q.DrainSnapshots()
	a, err := durable.ReplayStore(store)
	if err != nil {
		t.Fatal(err)
	}
	b, err := durable.ReplayStore(store)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatal("two replays of the same store serialized differently")
	}
}

// heldSyncStore holds every Sync until release is closed.
type heldSyncStore struct {
	kv.Store
	release chan struct{}
}

func (s heldSyncStore) Sync() error {
	<-s.release
	return s.Store.Sync()
}

// TestDeferredCommit pins the pq.Committer contract of durable handles:
// by default a mutating call returns only once its record is synced;
// after DeferCommit it returns once the record is logged, and Commit
// waits for the sync; Flush ends the deferral.
func TestDeferredCommit(t *testing.T) {
	store := heldSyncStore{kv.NewInmem(), make(chan struct{})}
	q, err := durable.Wrap(newInner(t, "linden"), durable.Options{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	returned := func(f func()) <-chan struct{} {
		done := make(chan struct{})
		go func() { f(); close(done) }()
		return done
	}
	blocked := func(done <-chan struct{}) bool {
		select {
		case <-done:
			return false
		case <-time.After(100 * time.Millisecond):
			return true
		}
	}
	kvs := []pq.KV{{Key: 1, Value: 1}, {Key: 2, Value: 2}}

	// Deferred: the op and a delete return before the sync; Commit waits.
	h := q.Handle()
	pq.DeferCommit(h)
	pq.InsertN(h, kvs)
	dst := make([]pq.KV, 1)
	if got := pq.DeleteMinN(h, dst, 1); got != 1 {
		t.Fatalf("deferred delete got %d items", got)
	}
	var commitErr error
	committed := returned(func() { commitErr = pq.Commit(h) })
	if !blocked(committed) {
		t.Fatal("Commit returned while the sync was held")
	}
	close(store.release)
	<-committed
	if commitErr != nil {
		t.Fatal(commitErr)
	}
	before := q.Stats()
	if err := pq.Commit(h); err != nil || q.Stats() != before {
		t.Fatalf("a Commit with nothing logged did work: err %v, %+v -> %+v", err, before, q.Stats())
	}

	// Default contract, and again after Flush ends the deferral: each
	// call returns only after an fsync of its own.
	for _, hh := range []pq.Handle{q.Handle(), h} {
		pq.Flush(hh)
		before := q.Stats().Fsyncs
		pq.InsertN(hh, kvs)
		if q.Stats().Fsyncs == before {
			t.Fatal("an undeferred InsertN returned before its fsync")
		}
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
}
