package multiq

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/rng"
)

// tierModel is the reference for one sub-queue: the items each tier must
// hold under the floor rule, as slices sorted by key and then value, and
// the floor itself (cold's minimum after its latest pop, or that pop's
// key if it emptied cold; 0 before the first).
type tierModel struct {
	hot, cold []pq.Item
	floor     uint64
}

func itemLess(a, b pq.Item) bool {
	return a.Key < b.Key || a.Key == b.Key && a.Value < b.Value
}

func insertSorted(a []pq.Item, it pq.Item) []pq.Item {
	i := sort.Search(len(a), func(i int) bool { return !itemLess(a[i], it) })
	a = append(a, pq.Item{})
	copy(a[i+1:], a[i:])
	a[i] = it
	return a
}

func (m *tierModel) push(its []pq.Item) {
	for _, it := range its {
		if it.Key < m.floor {
			m.hot = insertSorted(m.hot, it)
		} else {
			m.cold = insertSorted(m.cold, it)
		}
	}
}

// step names a call of a model test in its failure message; it is
// formatted only on failure.
type step struct {
	name, phase string
	i           int
}

func (s step) String() string { return fmt.Sprintf("%s %s %d", s.name, s.phase, s.i) }

// take removes got from the tier a pop must serve (hot while it holds an
// item), failing unless got is that tier's minimum key and an item the
// tier holds; a pop from cold moves the floor to cold's new minimum.
func (m *tierModel) take(t *testing.T, step step, got pq.Item) {
	t.Helper()
	tier, name := &m.hot, "hot"
	if len(m.hot) == 0 {
		tier, name = &m.cold, "cold"
	}
	a := *tier
	i := sort.Search(len(a), func(i int) bool { return !itemLess(a[i], got) })
	if len(a) == 0 || got.Key != a[0].Key || i == len(a) || a[i] != got {
		t.Fatalf("%v: popped %+v, but the %s tier's minimum is %v", step, got, name, a[:min(len(a), 1)])
	}
	if i == 0 {
		*tier = a[1:]
	} else {
		*tier = append(a[:i], a[i+1:]...)
	}
	if name == "cold" {
		m.floor = got.Key
		if len(m.cold) > 0 {
			m.floor = m.cold[0].Key
		}
	}
}

func (m *tierModel) len() int { return len(m.hot) + len(m.cold) }

// check compares s with the model: each heap's size and minimum, the
// floor, the tier split (every hot key below the floor, every cold key at
// or above it), the cached minimum and peek.
func (m *tierModel) check(t *testing.T, step step, s *subqueue) {
	t.Helper()
	heapMin := func(name string, got pq.Item, ok bool, want []pq.Item) {
		if ok != (len(want) > 0) || ok && got.Key != want[0].Key {
			t.Fatalf("%v: %s.Min = %d/%v, want %v", step, name, got.Key, ok, want[:min(len(want), 1)])
		}
	}
	if s.hot.Len() != len(m.hot) || s.cold.Len() != len(m.cold) {
		t.Fatalf("%v: hot/cold hold %d/%d items, want %d/%d", step, s.hot.Len(), s.cold.Len(), len(m.hot), len(m.cold))
	}
	if s.len() != m.len() {
		t.Fatalf("%v: len = %d, want %d", step, s.len(), m.len())
	}
	if f := s.cold.Floor(); f != m.floor {
		t.Fatalf("%v: floor = %d, want %d", step, f, m.floor)
	}
	if n := len(m.hot); n > 0 && m.hot[n-1].Key >= m.floor {
		t.Fatalf("%v: hot key %d is not below the floor %d", step, m.hot[n-1].Key, m.floor)
	}
	if len(m.cold) > 0 && m.cold[0].Key < m.floor {
		t.Fatalf("%v: cold key %d is below the floor %d", step, m.cold[0].Key, m.floor)
	}
	it, ok := s.hot.Min()
	heapMin("hot", it, ok, m.hot)
	it, ok = s.cold.Min()
	heapMin("cold", it, ok, m.cold)
	want := uint64(emptyKey)
	if len(m.hot) > 0 {
		want = m.hot[0].Key
	} else if len(m.cold) > 0 {
		want = m.cold[0].Key
	}
	if got := s.min.Load(); got != want {
		t.Fatalf("%v: cached min = %d, want %d", step, got, want)
	}
	if it, ok := s.peek(); ok != (want != emptyKey) || ok && it.Key != want {
		t.Fatalf("%v: peek = %d/%v, want %d", step, it.Key, ok, want)
	}
}

// drive pushes prefill items in batches of 8, then runs steps seeded
// random push, pop and popN calls on s against m, which in the mean pop
// as many items as they push, drawing keys from next, and checks s after
// every call. It returns how many popN calls crossed from hot into cold.
func drive(t *testing.T, name string, s *subqueue, m *tierModel, r *rng.Xoroshiro, next func() uint64, prefill, steps int) (crossings int) {
	t.Helper()
	var buf []pq.Item
	var id uint64
	push := func(label step, n int) {
		buf = buf[:0]
		for ; n > 0; n-- {
			id++
			buf = append(buf, pq.Item{Key: next(), Value: id})
		}
		s.push(buf)
		m.push(buf)
		m.check(t, label, s)
	}
	for i := 0; i < prefill; i += 8 {
		push(step{name, "prefill", i}, min(8, prefill-i))
	}
	for i := 0; i < steps; i++ {
		label := step{name, "step", i}
		switch r.Uintn(4) {
		case 0, 1:
			push(label, 1+int(r.Uintn(8)))
			continue
		case 2:
			it, ok := s.pop()
			if ok != (m.len() > 0) {
				t.Fatalf("%v: pop ok = %v with %d items", label, ok, m.len())
			}
			if ok {
				m.take(t, label, it)
			}
		case 3:
			want := 1 + int(r.Uintn(15))
			hot := len(m.hot)
			got := s.popN(buf[:0], want)
			if len(got) != min(want, m.len()) {
				t.Fatalf("%v: popN(%d) returned %d items of %d", label, want, len(got), m.len())
			}
			if hot > 0 && hot < len(got) {
				crossings++
			}
			for _, it := range got {
				m.take(t, label, it)
			}
		}
		m.check(t, label, s)
	}
	return crossings
}

// drain empties s with popN calls, checking each against m.
func drain(t *testing.T, name string, s *subqueue, m *tierModel) {
	t.Helper()
	for i := 0; m.len() > 0; i++ {
		label := step{name, "drain", i}
		for _, it := range s.popN(nil, 7) {
			m.take(t, label, it)
		}
		m.check(t, label, s)
	}
	if it, ok := s.pop(); ok {
		t.Fatalf("%s: pop on the drained sub-queue returned %+v", name, it)
	}
}

// TestSubqueueMatchesTierModel drives one sub-queue with seeded random
// push, pop and popN mixes over uniform 32-bit keys, uniform 8-bit keys
// (many duplicates of the floor), ascending keys, descending keys and a
// descending run that turns ascending, checking it against tierModel after
// every call and then draining it. Uniform keys must see a popN cross
// from hot into cold.
func TestSubqueueMatchesTierModel(t *testing.T) {
	desc := keys.NewGenerator(keys.Descending, rng.New(11))
	asc := keys.NewGenerator(keys.Ascending, rng.New(12))
	var turn uint64
	phase := 0
	for _, tc := range []struct {
		name  string
		next  func() uint64
		cross bool // must some popN cross from hot into cold?
	}{
		{"uniform32", keys.NewGenerator(keys.Uniform32, rng.New(1)).Next, true},
		{"uniform8", keys.NewGenerator(keys.Uniform8, rng.New(2)).Next, true},
		{"ascending", keys.NewGenerator(keys.Ascending, rng.New(3)).Next, false},
		{"descending", keys.NewGenerator(keys.Descending, rng.New(4)).Next, false},
		{"descending-then-ascending", func() uint64 {
			// Keys fall below the floor, then rise past it from
			// where they turned.
			if phase++; phase <= 10_000 {
				turn = desc.Next()
				return turn
			}
			return turn + asc.Next()
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, m, r := newSubqueue(), &tierModel{}, rng.New(7)
			m.check(t, step{tc.name, "new", 0}, s)
			crossings := drive(t, tc.name, s, m, r, tc.next, 2_000, 8_000)
			if tc.cross && crossings == 0 {
				t.Fatalf("no popN crossed from hot into cold in 8000 steps")
			}
			drain(t, tc.name, s, m)
		})
	}
}

// TestSubqueueGrownAndFlushed covers the two ways items reach a sub-queue
// besides an insert: a sub-queue EnsureHandles adds starts at floor 0
// (so its first keys all go cold) beside old ones that keep their floors,
// and EHandle.Flush pushes an unserved deletion buffer back, below the
// floor its refill raised.
func TestSubqueueGrownAndFlushed(t *testing.T) {
	t.Run("grown", func(t *testing.T) {
		q := New(1, 1)
		h := q.Handle()
		for k := uint64(1000); k < 2000; k++ {
			h.Insert(k, k)
		}
		for i := 0; i < 10; i++ {
			h.DeleteMin()
		}
		old := q.queues()[0]
		if f := old.cold.Floor(); f != 1010 {
			t.Fatalf("floor before growth = %d, want 1010", f)
		}
		q.EnsureHandles(3)
		if f := old.cold.Floor(); f != 1010 {
			t.Fatalf("growth moved the old floor to %d", f)
		}
		r := rng.New(21)
		for i, s := range q.queues()[1:] {
			name := fmt.Sprintf("added %d", i+1)
			m := &tierModel{}
			m.check(t, step{name, "new", 0}, s)
			gen := keys.NewGenerator(keys.Uniform32, rng.New(uint64(30+i)))
			drive(t, name, s, m, r, gen.Next, 500, 3_000)
			drain(t, name, s, m)
		}
	})
	t.Run("flushed", func(t *testing.T) {
		q := NewEngineered(1, 1, 1, 8) // one sub-queue: refills pop it
		h := q.Handle().(*EHandle)
		s := q.queues()[0]
		m := &tierModel{}
		var in []pq.Item
		for k := uint64(100); k < 200; k++ {
			in = append(in, pq.Item{Key: k, Value: k})
			h.Insert(k, k)
		}
		h.Flush()
		m.push(in)
		m.check(t, step{"flushed", "prefilled", 0}, s)
		if k, _, ok := h.DeleteMin(); !ok || k != 100 { // refill: pops 100..107 from cold, floor 108
			t.Fatalf("DeleteMin = %d/%v, want 100", k, ok)
		}
		for i, it := range in[:8] {
			m.take(t, step{"flushed", "refill", i}, it)
		}
		m.check(t, step{"flushed", "refilled", 0}, s)
		if len(h.del) != 7 {
			t.Fatalf("deletion buffer holds %d items, want 7", len(h.del))
		}
		h.Flush() // 101..107 go below the floor 108, to hot
		m.push(in[1:8])
		m.check(t, step{"flushed", "pushed back", 0}, s)
		if s.hot.Len() != 7 {
			t.Fatalf("Flush put %d items in hot, want 7 (101..107)", s.hot.Len())
		}
		drain(t, "flushed", s, m)
	})
}

// tierCounts sums the hot and cold sizes over every sub-queue of q.
func tierCounts(q *Queue) (hot, cold int) {
	for _, s := range q.queues() {
		hot += s.hot.Len()
		cold += s.cold.Len()
	}
	return hot, cold
}

// TestPrefillStaysCold pins the floor rule on a push-only prefill: nothing
// has been popped, every floor is 0, so every item lands in cold. A rule
// keyed on cold's current minimum would send each key below the first
// one its sub-queue got to hot, a few percent of a uniform prefill.
func TestPrefillStaysCold(t *testing.T) {
	q := NewEngineered(4, 2, 4, 8)
	for w := uint64(0); w < 2; w++ {
		h := q.Handle().(*EHandle)
		gen := keys.NewGenerator(keys.Uniform32, rng.New(40+w))
		for i := 0; i < 50_000; i++ {
			h.Insert(gen.Next(), uint64(i))
		}
		h.Flush()
	}
	if hot, cold := tierCounts(q); hot != 0 || cold != 100_000 {
		t.Fatalf("after a push-only prefill hot holds %d items and cold %d, want 0 and 100000", hot, cold)
	}
}

// churnShares runs one deterministic handle of NewEngineered(4, 1, 4, 8),
// bench/'s queue, over keys from dist: a 10^5-item prefill, then 1.8·10^5
// calls that each insert or delete a batch of 8 on a coin flip, as bench/'s
// in-process loaders do, so about 10^6 items pass through. It returns the
// share of sub-queue pops that hot served and the share of sub-queue
// pushes that went to hot, over the churn. A call only pushes or only
// pops, so the change in the tiers' sizes across it counts them.
func churnShares(dist keys.Distribution) (hotPops, hotPushes float64) {
	q := NewEngineered(4, 1, 4, 8)
	h := q.Handle().(*EHandle)
	gen := keys.NewGenerator(dist, rng.New(50))
	coin := rng.New(51)
	kvs := make([]pq.KV, 8)
	for i := 0; i < 100_000; i += len(kvs) {
		for j := range kvs {
			kvs[j] = pq.KV{Key: gen.Next()}
		}
		h.InsertN(kvs)
	}
	var pops, popsHot, pushes, pushesHot int
	for i := 0; i < 180_000; i++ {
		hot0, cold0 := tierCounts(q)
		insert := coin.Uintn(2) == 0
		if insert {
			for j := range kvs {
				kvs[j] = pq.KV{Key: gen.Next()}
			}
			h.InsertN(kvs)
		} else {
			h.DeleteMinN(kvs, len(kvs))
		}
		hot1, cold1 := tierCounts(q)
		if insert {
			pushesHot += hot1 - hot0
			pushes += hot1 - hot0 + cold1 - cold0
		} else {
			popsHot += hot0 - hot1
			pops += hot0 - hot1 + cold0 - cold1
		}
	}
	return float64(popsHot) / float64(pops), float64(pushesHot) / float64(pushes)
}

// TestChurnRoutesFreshKeysHot pins what the hot tier is for. Under uniform
// keys the kept keys drift up to the old, large ones and most new keys
// fall below the floor, so hot serves most sub-queue pops. Ascending keys
// rise past every floor, so next to nothing goes hot: bench/'s split-asc
// sent 0–85 of ~17M pushes per instance there, and this seeded run sends
// none.
func TestChurnRoutesFreshKeysHot(t *testing.T) {
	uPops, uPushes := churnShares(keys.Uniform32)
	aPops, aPushes := churnShares(keys.Ascending)
	shares := fmt.Sprintf("uniform32: hot served %.4f of pops, took %.4f of pushes; ascending: %.6f and %.6f",
		uPops, uPushes, aPops, aPushes)
	if uPops < 0.5 {
		t.Errorf("uniform32 churn: hot served under half the sub-queue pops (%s)", shares)
	}
	if aPushes > 1e-5 || aPops > 1e-5 {
		t.Errorf("ascending churn: more than 10^-5 of the traffic went hot (%s)", shares)
	}
	t.Log(shares)
}

// sinkSub keeps the benchmark's pops observable to the compiler.
var sinkSub []pq.Item

// BenchmarkSubqueue times the two-tier sub-queue, sequentially and without
// its lock, at the shapes MultiQueue sub-queues take in bench/'s
// in-process workloads (seqheap.BenchmarkSubHeap times one heap at the
// same shapes): 8 sub-queues sharing fig4a's 10^6-item prefill of uniform
// 32-bit keys, and 8 of 250k ascending keys, split-asc's. One op pushes a
// batch of 8 into a random sub-queue and pops a batch of 8 from another.
//
// The uniform shape first churns, untimed, 8 times its prefill through the
// sub-queues. Right after a prefill every floor is 0 and every key goes
// cold; the hold model's drift (surviving keys become the old, large ones
// while most new keys land below them) sets in only as pops raise the
// floors, and bench/'s runs, tens of millions of operations long, are past
// it. Timing the first 200k ops after the prefill measures that transient
// instead, as BenchmarkSubHeap does. Ascending keys rise past every floor
// and bypass hot, so that shape needs no warm-up.
func BenchmarkSubqueue(b *testing.B) {
	const subqueues, batch = 8, 8
	for _, shape := range []struct {
		name   string
		dist   keys.Distribution
		size   int // items per sub-queue
		warmup int // untimed ops after the prefill
	}{
		{"uniform32-125k", keys.Uniform32, 125_000, subqueues * 125_000},
		{"ascending-250k", keys.Ascending, 250_000, 0},
	} {
		b.Run(shape.name, func(b *testing.B) {
			r := rng.New(1)
			gen := keys.NewGenerator(shape.dist, r)
			ss := make([]*subqueue, subqueues)
			for i := range ss {
				ss[i] = newSubqueue()
			}
			in := make([]pq.Item, batch)
			fill := func() {
				for i := range in {
					in[i] = pq.Item{Key: gen.Next()}
				}
			}
			for i := 0; i < shape.size/batch; i++ {
				for _, s := range ss {
					fill()
					s.push(in)
				}
			}
			out := make([]pq.Item, 0, batch)
			op := func() {
				fill()
				ss[r.Uintn(subqueues)].push(in)
				out = ss[r.Uintn(subqueues)].popN(out[:0], batch)
			}
			for i := 0; i < shape.warmup; i++ {
				op()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			sinkSub = out
		})
	}
}

// BenchmarkSubqueueSplit times bench/'s split-asc shape through the
// queue: NewEngineered(4, 2, 4, 8), bench/'s queue, prefilled with
// 2·10^6 ascending keys (250k per sub-queue), then one EHandle pushing
// batches of 8 rising keys while another pops batches of 8. One op is one
// pop batch. The pusher runs for the whole measurement, pausing while the
// queue holds more than its prefill, so the popper sets the time, and a
// sub-queue's lines pass between two cores. Its keys start over from the
// bottom of the prefill's range, as bench/'s loader's generator does, so
// its pushes land among the keys the popper is working through.
// BenchmarkSubqueue, one goroutine doing both, shows neither.
func BenchmarkSubqueueSplit(b *testing.B) {
	const prefill, batch = 2_000_000, 8
	q := NewEngineered(DefaultC, 2, DefaultStickiness, DefaultBuffer)
	ins, del := q.Handle().(*EHandle), q.Handle().(*EHandle)
	in, out := make([]pq.KV, batch), make([]pq.KV, batch)
	push := func(gen *keys.Generator) {
		for i := range in {
			in[i] = pq.KV{Key: gen.Next()}
		}
		ins.InsertN(in)
	}
	gen := keys.NewGenerator(keys.Ascending, rng.New(1))
	for i := 0; i < prefill; i += batch {
		push(gen)
	}
	ins.Flush()
	gen = keys.NewGenerator(keys.Ascending, rng.New(2))
	var stop atomic.Bool
	var popped atomic.Int64 // batches
	var wg sync.WaitGroup
	wg.Add(1)
	b.ResetTimer()
	go func() {
		defer wg.Done()
		for pushed := int64(0); !stop.Load(); pushed++ {
			for pushed%64 == 0 && pushed >= popped.Load() && !stop.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			push(gen)
		}
	}()
	for i := 0; i < b.N; i++ {
		if del.DeleteMinN(out, batch) == 0 {
			b.Fatal("DeleteMinN found the queue empty")
		}
		popped.Add(1)
	}
	b.StopTimer()
	stop.Store(true)
	wg.Wait()
}
