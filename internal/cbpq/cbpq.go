// Package cbpq implements a Chunk-Based Priority Queue after Braginsky,
// Cohen and Petrank (see the paper's Appendix D: "the chunk linked list
// replaces Skiplists and heaps as the backing data structure, and use of
// the more efficient Fetch-And-Add (FAA) instruction is preferred over
// Compare-And-Swap"). The CBPQ "clearly outperforms the other queues in
// mixed workloads" in the original's evaluation, making it a natural
// extension target for this suite.
//
// Structure: an ordered sequence of chunks, each covering a key range.
// The first chunk holds a frozen sorted array consumed through an atomic
// delete index, plus a bounded insert buffer for keys that belong to the
// head range; the remaining chunks are append-only arrays filled through
// fetch-and-add slot claiming. Full chunks split; an exhausted first chunk
// is rebuilt from its live remainder, its buffer, and — when those are
// empty — the next chunk.
//
// All structural transitions follow the original's freeze protocol, made
// deterministic so that concurrent helpers reconstruct identical state:
//
//   - a slot is frozen by CAS (empty→frozen stops late publishes,
//     ready→readyFrozen stops late claims), after which its membership in
//     the rebuilt chunk is fixed and every helper observes the same set;
//   - the first chunk's delete index is frozen by swapping in a sentinel;
//     the pre-freeze value is published once through a dedicated field so
//     every helper cuts the sorted remainder at the same position;
//   - helpers race to install the successor descriptor with a single CAS;
//     losers discard identical work, so no item is lost or duplicated.
//
// # Deviations from the original
//
// The original consumes the first chunk purely by FAA and arranges (via
// eager merging) that the insert buffer never holds the minimum. This
// implementation keeps the buffer visible to delete_min instead: it
// compares the sorted head against the smallest unclaimed buffer item and
// claims whichever is smaller (CAS on the delete index / buffer slot).
// This trades the FAA fast path for a simpler strict design; the freeze
// and split protocols follow the original.
//
// Registry identifier: "cbpq"; strict (cmd/pqverify checks that no
// deletion has a definite rank above 0). In the extension-queue grid of
// EXPERIMENTS.md it is the fastest strict structure, consistent with the
// original's mixed-workload claim.
package cbpq

import (
	"sort"
	"sync/atomic"

	"cpq/internal/pq"
)

const (
	// chunkCap is the capacity of append chunks.
	chunkCap = 256
	// bufCap is the first chunk's insert-buffer capacity; a full buffer
	// triggers a first-chunk rebuild.
	bufCap = 64
	// delSentinel is swapped into the delete index to freeze the first
	// chunk against further deletions.
	delSentinel = int64(1) << 40
)

// Slot states for the freeze protocol.
const (
	slotEmpty       uint32 = iota // claimed by a writer, value not yet published
	slotReady                     // value published, item live
	slotFrozen                    // frozen before publish; writer must retry
	slotClaimed                   // consumed by a delete_min
	slotReadyFrozen               // frozen live item: unclaimable, owned by the rebuild
)

// slotArr is a fixed array of published (key, value) pairs with per-slot
// state words and an FAA-claimed append index.
type slotArr struct {
	next  atomic.Int64 // next free slot (may exceed len)
	state []atomic.Uint32
	keys  []uint64
	vals  []uint64
}

func newSlotArr(n int) *slotArr {
	return &slotArr{
		state: make([]atomic.Uint32, n),
		keys:  make([]uint64, n),
		vals:  make([]uint64, n),
	}
}

// append claims a slot and publishes (key, value). It fails if the array
// is full or the slot was frozen before the publish succeeded.
func (a *slotArr) append(key, value uint64) bool {
	idx := a.next.Add(1) - 1
	if idx >= int64(len(a.state)) {
		return false
	}
	a.keys[idx] = key
	a.vals[idx] = value
	return a.state[idx].CompareAndSwap(slotEmpty, slotReady)
}

// appendUnpublished fills a slot of a thread-private array (used while
// constructing replacement chunks before they are published).
func (a *slotArr) appendUnpublished(key, value uint64) {
	idx := a.next.Add(1) - 1
	a.keys[idx] = key
	a.vals[idx] = value
	a.state[idx].Store(slotReady)
}

// freezeAndCollect drives every slot to a frozen state and returns the
// live items. Deterministic across concurrent helpers: each slot's
// membership is fixed by the first state transition that freezes it, and
// later helpers observe the same outcome.
func (a *slotArr) freezeAndCollect() []pq.Item {
	var out []pq.Item
	for i := range a.state {
		for {
			switch a.state[i].Load() {
			case slotEmpty:
				if !a.state[i].CompareAndSwap(slotEmpty, slotFrozen) {
					continue
				}
			case slotReady:
				if !a.state[i].CompareAndSwap(slotReady, slotReadyFrozen) {
					continue
				}
				out = append(out, pq.Item{Key: a.keys[i], Value: a.vals[i]})
			case slotReadyFrozen:
				out = append(out, pq.Item{Key: a.keys[i], Value: a.vals[i]})
			default: // frozen or claimed
			}
			break
		}
	}
	return out
}

// minReady returns the index and key of the smallest slotReady item, or
// -1 if none is visible.
func (a *slotArr) minReady() (int, uint64) {
	best := -1
	var bestKey uint64
	n := a.next.Load()
	if n > int64(len(a.state)) {
		n = int64(len(a.state))
	}
	for i := int64(0); i < n; i++ {
		if a.state[i].Load() == slotReady {
			if k := a.keys[i]; best < 0 || k < bestKey {
				best, bestKey = int(i), k
			}
		}
	}
	return best, bestKey
}

// claim consumes a specific ready slot. Fails after the slot is frozen.
func (a *slotArr) claim(i int) bool {
	return a.state[i].CompareAndSwap(slotReady, slotClaimed)
}

// chunk is one segment of the key space.
type chunk struct {
	maxKey uint64 // inclusive upper bound of this chunk's range
	frozen atomic.Bool

	// First-chunk state: a sorted array consumed through delIdx, plus the
	// insert buffer. Regular chunks leave sorted nil and use arr.
	sorted   []pq.Item
	delIdx   atomic.Int64
	frozenDi atomic.Int64 // pre-freeze delIdx, published once (-1 = not yet)
	buf      *slotArr

	// Regular-chunk state: FAA-filled append array.
	arr *slotArr
}

func newFirstChunk(items []pq.Item, maxKey uint64) *chunk {
	c := &chunk{maxKey: maxKey, sorted: items, buf: newSlotArr(bufCap)}
	c.frozenDi.Store(-1)
	return c
}

func newAppendChunk(maxKey uint64, capacity int) *chunk {
	return &chunk{maxKey: maxKey, arr: newSlotArr(capacity)}
}

// isFirstStyle reports whether the chunk uses first-chunk state.
func (c *chunk) isFirstStyle() bool { return c.arr == nil }

// desc is the atomically published queue descriptor: chunks in ascending
// range order; chunks[0] is the first chunk; the last chunk has
// maxKey == MaxUint64.
type desc struct {
	chunks []*chunk
}

// find returns the chunk whose range contains key.
func (d *desc) find(key uint64) *chunk {
	lo, hi := 0, len(d.chunks)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if d.chunks[mid].maxKey < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return d.chunks[lo]
}

// Queue is a chunk-based priority queue.
type Queue struct {
	root atomic.Pointer[desc]
}

var _ pq.Queue = (*Queue)(nil)

// New returns an empty queue.
func New() *Queue {
	q := &Queue{}
	q.root.Store(&desc{chunks: []*chunk{newFirstChunk(nil, ^uint64(0))}})
	return q
}

// Name implements pq.Queue.
func (q *Queue) Name() string { return "cbpq" }

// Handle implements pq.Queue. The queue keeps no thread-local state, so
// the queue itself backs the handle.
func (q *Queue) Handle() pq.Handle { return (*handle)(q) }

type handle Queue

var _ pq.Handle = (*handle)(nil)

// Insert implements pq.Handle.
func (h *handle) Insert(key, value uint64) {
	q := (*Queue)(h)
	for {
		d := q.root.Load()
		c := d.find(key)
		if c.frozen.Load() {
			q.help(d, c)
			continue
		}
		if c.isFirstStyle() {
			if c.buf.append(key, value) {
				return
			}
			// Buffer full or frozen: rebuild the head and retry.
			q.rebuildFirst(d)
			continue
		}
		if c.arr.append(key, value) {
			return
		}
		// Chunk full or frozen: split it and retry.
		q.split(d, c)
	}
}

// DeleteMin implements pq.Handle.
func (h *handle) DeleteMin() (key, value uint64, ok bool) {
	q := (*Queue)(h)
	for {
		d := q.root.Load()
		first := d.chunks[0]
		if first.frozen.Load() {
			q.help(d, first)
			continue
		}
		bi, bkey := first.buf.minReady()
		di := first.delIdx.Load()
		if di >= delSentinel {
			// A rebuild froze the head after the check above. Its sorted
			// remainder may hold smaller keys than the buffer: help, retry.
			q.help(d, first)
			continue
		}
		sortedLive := di >= 0 && di < int64(len(first.sorted))
		switch {
		case sortedLive && (bi < 0 || first.sorted[di].Key <= bkey):
			if first.delIdx.CompareAndSwap(di, di+1) {
				it := first.sorted[di]
				return it.Key, it.Value, true
			}
		case bi >= 0:
			if first.buf.claim(bi) {
				return bkey, first.buf.vals[bi], true
			}
		default:
			if first.frozen.Load() {
				continue // a rebuild started mid-check; retry on new state
			}
			if len(d.chunks) == 1 {
				// Head empty and no other chunks: re-check once more to
				// close the window against a racing buffer insert.
				if bi2, _ := first.buf.minReady(); bi2 >= 0 {
					continue
				}
				if di2 := first.delIdx.Load(); di2 >= 0 && di2 < int64(len(first.sorted)) {
					continue
				}
				return 0, 0, false
			}
			// Head exhausted but more chunks exist: pull them in.
			q.rebuildFirst(d)
		}
	}
}

// help completes the transition a frozen chunk is part of.
func (q *Queue) help(d *desc, c *chunk) {
	if c == d.chunks[0] {
		q.rebuildFirst(d)
	} else {
		q.split(d, c)
	}
}

// rebuildFirst freezes the first chunk and publishes a new head built from
// the chunk's live remainder and buffer, pulling in the next chunk when the
// head is otherwise empty. Concurrent helpers reconstruct identical state;
// one root CAS wins.
func (q *Queue) rebuildFirst(d *desc) {
	first := d.chunks[0]
	first.frozen.Store(true)
	// Freeze deletions and publish the cut position exactly once.
	old := first.delIdx.Swap(delSentinel)
	if old < delSentinel {
		first.frozenDi.CompareAndSwap(-1, old)
	}
	var cut int64
	for {
		if cut = first.frozenDi.Load(); cut >= 0 {
			break
		}
		// The first swapper publishes immediately after its swap; spin the
		// few cycles until it lands.
	}
	if cut > int64(len(first.sorted)) {
		cut = int64(len(first.sorted))
	}
	live := append([]pq.Item(nil), first.sorted[cut:]...)
	live = append(live, first.buf.freezeAndCollect()...)

	maxKey := first.maxKey
	rest := d.chunks[1:]
	if len(live) == 0 && len(rest) > 0 {
		// Pull the next chunk into the head.
		next := rest[0]
		next.frozen.Store(true)
		live = next.arr.freezeAndCollect()
		maxKey = next.maxKey
		rest = rest[1:]
	}
	sort.Slice(live, func(i, j int) bool { return live[i].Key < live[j].Key })

	// Keep the head small: a huge head makes every buffer-full rebuild
	// copy O(n). Spill the tail of an oversized head into append chunks,
	// exactly the chunked layout the original maintains.
	head, tail := splitHead(live, maxKey)

	nd := &desc{chunks: make([]*chunk, 0, len(rest)+1+len(tail))}
	nd.chunks = append(nd.chunks, head)
	nd.chunks = append(nd.chunks, tail...)
	nd.chunks = append(nd.chunks, rest...)
	q.root.CompareAndSwap(d, nd)
	// Losers of the CAS discard work identical to the winner's.
}

// splitHead builds the new first chunk from sorted live items, spilling
// anything beyond ~chunkCap into append chunks. Chunk boundaries always
// separate distinct keys so the range tiling stays exact; a run of equal
// keys is never split across chunks.
func splitHead(live []pq.Item, regionMax uint64) (*chunk, []*chunk) {
	if len(live) <= 2*chunkCap {
		return newFirstChunk(live, regionMax), nil
	}
	cut := chunkCap
	for cut < len(live) && live[cut-1].Key == live[cut].Key {
		cut++
	}
	if cut >= len(live) {
		return newFirstChunk(live, regionMax), nil
	}
	head := newFirstChunk(live[:cut:cut], live[cut-1].Key)
	var tail []*chunk
	rest := live[cut:]
	for len(rest) > 0 {
		end := chunkCap
		if end > len(rest) {
			end = len(rest)
		}
		for end < len(rest) && rest[end-1].Key == rest[end].Key {
			end++
		}
		maxK := regionMax
		if end < len(rest) {
			maxK = rest[end-1].Key
		}
		c := newAppendChunk(maxK, max(chunkCap, 2*end))
		for _, it := range rest[:end] {
			c.arr.appendUnpublished(it.Key, it.Value)
		}
		tail = append(tail, c)
		rest = rest[end:]
	}
	return head, tail
}

// split freezes a full append chunk and replaces it with two half chunks
// (or one bigger chunk when every key is identical and a range split is
// impossible).
func (q *Queue) split(d *desc, c *chunk) {
	c.frozen.Store(true)
	items := c.arr.freezeAndCollect()
	sort.Slice(items, func(i, j int) bool { return items[i].Key < items[j].Key })

	idx := -1
	for i, cc := range d.chunks {
		if cc == c {
			idx = i
			break
		}
	}
	if idx < 0 {
		return // chunk no longer in the current descriptor
	}

	repl := buildSplit(items, c.maxKey)
	nd := &desc{chunks: make([]*chunk, 0, len(d.chunks)+1)}
	nd.chunks = append(nd.chunks, d.chunks[:idx]...)
	nd.chunks = append(nd.chunks, repl...)
	nd.chunks = append(nd.chunks, d.chunks[idx+1:]...)
	q.root.CompareAndSwap(d, nd)
}

// buildSplit constructs the replacement chunks for a frozen chunk's sorted
// items. The split point must separate distinct keys so the range tiling
// stays exact.
func buildSplit(items []pq.Item, maxKey uint64) []*chunk {
	n := len(items)
	if n >= 2 {
		// Find a boundary near the middle where keys differ.
		mid := n / 2
		lo, hi := mid, mid
		for lo > 0 && items[lo-1].Key == items[lo].Key {
			lo--
		}
		for hi < n && items[hi-1].Key == items[hi].Key {
			hi++
		}
		switch {
		case lo > 0:
			mid = lo
		case hi < n:
			mid = hi
		default:
			mid = 0 // all keys identical
		}
		if mid > 0 {
			a := newAppendChunk(items[mid-1].Key, max(chunkCap, 2*mid))
			for _, it := range items[:mid] {
				a.arr.appendUnpublished(it.Key, it.Value)
			}
			b := newAppendChunk(maxKey, max(chunkCap, 2*(n-mid)))
			for _, it := range items[mid:] {
				b.arr.appendUnpublished(it.Key, it.Value)
			}
			return []*chunk{a, b}
		}
	}
	// Too few items or all keys identical: one chunk with room to grow.
	c := newAppendChunk(maxKey, max(chunkCap, 2*n))
	for _, it := range items {
		c.arr.appendUnpublished(it.Key, it.Value)
	}
	return []*chunk{c}
}

// Len counts live items (O(n); tests only).
func (q *Queue) Len() int {
	d := q.root.Load()
	total := 0
	for i, c := range d.chunks {
		if i == 0 {
			di := c.delIdx.Load()
			if di < 0 {
				di = 0
			}
			if di < int64(len(c.sorted)) {
				total += len(c.sorted) - int(di)
			}
			for j := range c.buf.state {
				s := c.buf.state[j].Load()
				if s == slotReady || s == slotReadyFrozen {
					total++
				}
			}
			continue
		}
		n := c.arr.next.Load()
		if n > int64(len(c.arr.state)) {
			n = int64(len(c.arr.state))
		}
		for j := int64(0); j < n; j++ {
			s := c.arr.state[j].Load()
			if s == slotReady || s == slotReadyFrozen {
				total++
			}
		}
	}
	return total
}
