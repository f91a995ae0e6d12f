package chaos_test

import (
	"strings"
	"sync/atomic"
	"testing"

	"cpq/internal/chaos"
	"cpq/internal/core"
	"cpq/internal/hunt"
	"cpq/internal/keys"
	"cpq/internal/multiq"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/seqheap"
	"cpq/internal/workload"
)

func small(name string, f func(int) pq.Queue) chaos.CheckConfig {
	return chaos.CheckConfig{
		Name:         name,
		NewQueue:     f,
		Threads:      4,
		OpsPerThread: 2000,
		Seed:         99,
	}
}

// TestCheckPassesStrictQueue: strict queues pass with no deletion above
// rank 0, over several seeds. hunt's deletion holds the root until its
// detached bottom item sits there; without that, a concurrent deletion can
// miss the detached item and return a larger key, a window that shows
// mostly under the race detector.
func TestCheckPassesStrictQueue(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) pq.Queue
	}{
		{"globallock", func(int) pq.Queue { return seqheap.NewGlobalLock() }},
		{"hunt", func(int) pq.Queue { return hunt.New(0) }},
	} {
		for s := uint64(1); s <= 8; s++ {
			cfg := small(tc.name, tc.mk)
			cfg.Seed = 99 * s
			res := chaos.Check(cfg)
			if res.Failed() {
				t.Fatalf("strict queue %s failed chaos check (seed %d):\n%s", tc.name, res.Seed, res)
			}
			if res.Drained == 0 || res.Deletions == 0 {
				t.Fatalf("degenerate run: %s", res)
			}
		}
	}
}

func TestCheckPassesKLSMWithCoverage(t *testing.T) {
	res := chaos.Check(small("klsm128", func(int) pq.Queue { return core.NewKLSM(128) }))
	if res.Failed() {
		t.Fatalf("klsm failed chaos check (seed %d):\n%s", res.Seed, res)
	}
	// The k-LSM exercises the SLSM publish/republish and run-buffer
	// failpoints; an all-zero coverage report means the threading broke.
	if res.Injected.TotalHits() == 0 {
		t.Fatal("no failpoint recorded any hits during a klsm run")
	}
	if res.Injected.Hits[chaos.SLSMPublish] == 0 {
		t.Fatalf("slsm-publish failpoint never hit: %+v", res.Injected.Hits)
	}
}

func TestCheckPassesEngineeredMultiQueue(t *testing.T) {
	res := chaos.Check(small("multiq-s4-b8", func(threads int) pq.Queue {
		return multiq.NewEngineered(2, threads+2, 4, 8)
	}))
	if res.Failed() {
		t.Fatalf("engineered multiqueue failed chaos check (seed %d):\n%s", res.Seed, res)
	}
	if res.Injected.Hits[chaos.MQLock] == 0 {
		t.Fatalf("mq-lock failpoint never hit: %+v", res.Injected.Hits)
	}
}

// lossyHandle drops every 97th insert on the floor — the checker must
// report the items as lost.
type lossyHandle struct {
	pq.Handle
	n int
}

func (h *lossyHandle) Insert(key, value uint64) {
	h.n++
	if h.n%97 == 0 {
		return
	}
	h.Handle.Insert(key, value)
}

type wrapQueue struct {
	pq.Queue
	wrap func(pq.Handle) pq.Handle
}

func (q *wrapQueue) Handle() pq.Handle { return q.wrap(q.Queue.Handle()) }

func TestCheckDetectsLostItems(t *testing.T) {
	cfg := small("globallock", func(int) pq.Queue {
		return &wrapQueue{
			Queue: seqheap.NewGlobalLock(),
			wrap:  func(h pq.Handle) pq.Handle { return &lossyHandle{Handle: h} },
		}
	})
	res := chaos.Check(cfg)
	if !res.Failed() {
		t.Fatal("lossy queue passed the chaos check")
	}
	if !hasViolation(res, "lost") {
		t.Fatalf("lost items not reported:\n%s", res)
	}
}

// plantQueue wraps a global-lock heap so that once per 1,000 deletions
// (across all handles) a DeleteMin pops the pos+1 smallest items, returns
// the last of them and reinserts the others: a deletion of rank pos.
// planted counts the returns that really have rank pos: those that popped
// pos+1 items, the last with a larger key than the one before it.
type plantQueue struct {
	pq.Queue
	pos     int
	n       atomic.Uint64
	planted atomic.Uint64
}

func (q *plantQueue) Handle() pq.Handle { return &plantHandle{Handle: q.Queue.Handle(), q: q} }

type plantHandle struct {
	pq.Handle
	q      *plantQueue
	popped []pq.KV
}

func (h *plantHandle) DeleteMin() (uint64, uint64, bool) {
	if h.q.n.Add(1)%1000 != 0 {
		return h.Handle.DeleteMin()
	}
	h.popped = h.popped[:0]
	for len(h.popped) <= h.q.pos {
		k, v, ok := h.Handle.DeleteMin()
		if !ok {
			break
		}
		h.popped = append(h.popped, pq.KV{Key: k, Value: v})
	}
	if len(h.popped) == 0 {
		return 0, 0, false
	}
	last := h.popped[len(h.popped)-1]
	for _, kv := range h.popped[:len(h.popped)-1] {
		h.Handle.Insert(kv.Key, kv.Value)
	}
	if len(h.popped) == h.q.pos+1 && h.popped[h.q.pos-1].Key < last.Key {
		h.q.planted.Add(1)
	}
	return last.Key, last.Value, true
}

// TestCheckDetectsBoundViolation plants deletions one rank above a claimed
// bound: a strict queue that returns its second-smallest item, and an
// "slsm4" (bound 4 at any P) that returns its sixth-smallest, each once per
// 1,000 deletions. The chaos checker and the quality verdict must both
// catch them at 1 and 4 threads. At 1 thread nothing runs concurrently, so
// the verdict must count exactly the planted deletions.
func TestCheckDetectsBoundViolation(t *testing.T) {
	for _, tc := range []struct {
		name string
		pos  int
	}{
		{"globallock", 1},
		{"slsm4", 5},
	} {
		for _, threads := range []int{1, 4} {
			var q *plantQueue
			mk := func(int) pq.Queue {
				q = &plantQueue{Queue: seqheap.NewGlobalLock(), pos: tc.pos}
				return q
			}
			cfg := small(tc.name, mk)
			cfg.Threads = threads
			res := chaos.Check(cfg)
			if !hasViolation(res, "relaxation bound") {
				t.Errorf("%s at %d threads: %d planted deletions passed the chaos check:\n%s",
					tc.name, threads, q.planted.Load(), res)
			}
			if v := quality.ViolationsAbove(res.Quality, res.Bound); threads == 1 && v != q.planted.Load() {
				t.Errorf("%s: chaos check counted %d violations, %d planted", tc.name, v, q.planted.Load())
			}

			qres := quality.Run(quality.Config{
				NewQueue:     mk,
				Threads:      threads,
				OpsPerThread: 10_000,
				Workload:     workload.Uniform,
				KeyDist:      keys.Uniform32,
				Prefill:      4000,
				Seed:         99,
			})
			bound, _ := quality.ClaimedBound(tc.name, threads+1)
			v := quality.ViolationsAbove(qres, bound)
			if v == 0 {
				t.Errorf("%s at %d threads: %d planted deletions passed the quality verdict (max definite rank %d)",
					tc.name, threads, q.planted.Load(), qres.MaxDefinite)
			}
			if threads == 1 && v != q.planted.Load() {
				t.Errorf("%s: quality verdict counted %d violations, %d planted", tc.name, v, q.planted.Load())
			}
		}
	}
}

// dupHandle replays a previously returned item every 97th delete — a
// double delete the conservation pass must flag.
type dupHandle struct {
	pq.Handle
	n         int
	lastK     uint64
	lastV     uint64
	haveStash bool
}

func (h *dupHandle) DeleteMin() (uint64, uint64, bool) {
	h.n++
	if h.haveStash && h.n%97 == 0 {
		return h.lastK, h.lastV, true
	}
	k, v, ok := h.Handle.DeleteMin()
	if ok {
		h.lastK, h.lastV, h.haveStash = k, v, true
	}
	return k, v, ok
}

func TestCheckDetectsDoubleDelete(t *testing.T) {
	cfg := small("globallock", func(int) pq.Queue {
		return &wrapQueue{
			Queue: seqheap.NewGlobalLock(),
			wrap:  func(h pq.Handle) pq.Handle { return &dupHandle{Handle: h} },
		}
	})
	res := chaos.Check(cfg)
	if !res.Failed() {
		t.Fatal("duplicating queue passed the chaos check")
	}
	if !hasViolation(res, "deleted twice") {
		t.Fatalf("double delete not reported:\n%s", res)
	}
}

// flushLossHandle buffers inserts locally and throws the buffer away on
// Flush — breaking the Flusher recovery contract the checker verifies for
// abandoned handles.
type flushLossHandle struct {
	pq.Handle
	buf []pq.Item
}

func (h *flushLossHandle) Insert(key, value uint64) {
	if len(h.buf) < 8 {
		h.buf = append(h.buf, pq.Item{Key: key, Value: value})
		return
	}
	h.Handle.Insert(key, value)
}

func (h *flushLossHandle) Flush() { h.buf = h.buf[:0] }

func TestCheckDetectsFlushLoss(t *testing.T) {
	cfg := small("globallock", func(int) pq.Queue {
		return &wrapQueue{
			Queue: seqheap.NewGlobalLock(),
			wrap:  func(h pq.Handle) pq.Handle { return &flushLossHandle{Handle: h} },
		}
	})
	res := chaos.Check(cfg)
	if !res.Failed() {
		t.Fatal("flush-discarding queue passed the chaos check")
	}
	if !hasViolation(res, "lost") {
		t.Fatalf("flush loss not reported as lost items:\n%s", res)
	}
}

// liarHandle reports empty spuriously every 53rd delete — the emptiness
// oracle violation the drain retry loop is built to convict.
type liarHandle struct {
	pq.Handle
	n int
}

func (h *liarHandle) DeleteMin() (uint64, uint64, bool) {
	h.n++
	if h.n%53 == 0 {
		return 0, 0, false
	}
	return h.Handle.DeleteMin()
}

func TestCheckDetectsEmptinessLie(t *testing.T) {
	cfg := small("globallock", func(int) pq.Queue {
		return &wrapQueue{
			Queue: seqheap.NewGlobalLock(),
			wrap:  func(h pq.Handle) pq.Handle { return &liarHandle{Handle: h} },
		}
	})
	res := chaos.Check(cfg)
	if !res.Failed() {
		t.Fatal("empty-lying queue passed the chaos check")
	}
	if !hasViolation(res, "emptiness") {
		t.Fatalf("emptiness lie not reported:\n%s", res)
	}
}

func TestCheckSingleThreadDeterministic(t *testing.T) {
	cfg := chaos.CheckConfig{
		Name:         "globallock",
		NewQueue:     func(int) pq.Queue { return seqheap.NewGlobalLock() },
		Threads:      1,
		OpsPerThread: 3000,
		Seed:         1234,
	}
	a, b := chaos.Check(cfg), chaos.Check(cfg)
	if a.Failed() || b.Failed() {
		t.Fatalf("strict single-thread run failed:\n%s\n%s", a, b)
	}
	if a.Inserts != b.Inserts || a.Deletions != b.Deletions || a.Drained != b.Drained ||
		a.Injected != b.Injected {
		t.Fatalf("same seed, different runs:\n%s\n%s", a, b)
	}
}

func hasViolation(res chaos.CheckResult, substr string) bool {
	for _, v := range res.Violations {
		if strings.Contains(v, substr) {
			return true
		}
	}
	return false
}

// TestCheckPoolMode runs the checker with every handle routed through a
// pq.Pool: abandoned handles are recovered by Release, and the relaxation
// bound is the dynamic EffectiveP one.
func TestCheckPoolMode(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func(int) pq.Queue
	}{
		{"klsm128", func(int) pq.Queue { return core.NewKLSM(128) }},
		{"multiq", func(threads int) pq.Queue { return multiq.New(2, threads+2) }},
	} {
		cfg := small(tc.name, tc.mk)
		cfg.UsePool = true
		res := chaos.Check(cfg)
		if res.Failed() {
			t.Fatalf("%s pool-mode chaos check failed (seed %d):\n%s", tc.name, res.Seed, res)
		}
		if res.PoolCreated == 0 || res.PoolPeakLive == 0 {
			t.Fatalf("%s: pool statistics missing:\n%s", tc.name, res)
		}
		// The reported bound must be the dynamic one — derived from the
		// pool's peak-live/created counts, not the frozen Threads+2.
		wantP := quality.EffectiveP(tc.name, res.PoolPeakLive, res.PoolCreated)
		wantBound, wantKind := quality.ClaimedBound(tc.name, wantP)
		if res.Bound != wantBound || res.Kind != wantKind {
			t.Fatalf("%s: bound %d (%s) not judged against EffectiveP=%d (want %d %s)",
				tc.name, res.Bound, res.Kind, wantP, wantBound, wantKind)
		}
	}
}
