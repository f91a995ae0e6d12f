package main

import (
	"bufio"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

// Span names. Every span of one request shares its connection and request
// number; a span's level is its depth on the request's path, so its id and
// its parent's id follow from (level, conn, req) without coordination.
const (
	spanClientRequest = iota // Start* call to decoded response, on the client
	spanQueue                // an in-process load goroutine's call into the queue
	spanServerQueue          // the server's call into the served queue (net)
	spanDurableCall          // the server's call into the durable queue, commit wait included
	spanDurableInner         // the durable queue's call into its inner queue, under the op mutex
	spanKVAppend             // store calls serve a whole commit cohort, so they are roots
	spanKVSync
	spanKVUpdate
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.request", "queue", "server.queue", "durable.call", "durable.inner",
	"kv.append", "kv.sync", "kv.update",
}

// spanLevel is 0 for spans that are always roots.
var spanLevel = [numSpanNames]uint64{1, 1, 2, 2, 3, 0, 0, 0}

// maxSpans bounds the spans kept in memory. Each instance of a run may
// keep its share; later ones are counted as dropped.
const maxSpans = 1 << 18

// span is one sampled call. Times are ns since the tracer was made.
type span struct {
	id, parent uint64
	name       int
	start, end int64
	conn, req  uint64
}

// spanID is the id of the level-th span of request req on connection
// conn; level 0 has no id.
func spanID(level, conn, req uint64) uint64 {
	if level == 0 {
		return 0
	}
	return level<<56 | (conn&0xffff)<<40 | req&(1<<40-1)
}

// tracer times each layer from outside: it hands out wrappers of the
// public interfaces the program accepts (pq.Queue, kv.Store, net.Listener
// and net.Conn), and the wrappers record counts, call times and sampled
// spans while the tracer is on. A nil *tracer wraps nothing, which is how
// untraced runs measure the bare program.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	roots atomic.Uint64 // ids of root spans

	mu       sync.Mutex
	spans    []span
	dropped  uint64
	instance int                        // spans kept from the current instance
	queues   [numSpanNames]*tracedQueue // the current instance's wrapper under each span name
	kvStore  *tracedStore               // the current instance's store wrapper

	// Totals over the instances collected so far.
	calls   [numSpanNames]callStats
	handles [numSpanNames]int
	kv      storeStats

	server, client    ioStats
	encodeNs, encodeN atomic.Uint64
	recvNs, recvN     atomic.Uint64
	tel, tel0         telemetry.Snapshot // queue-internal counters while on; the count at start
}

func newTracer() *tracer {
	return &tracer{t0: time.Now()}
}

func (t *tracer) start() {
	if t == nil {
		return
	}
	t.tel0 = telemetry.Capture()
	t.on.Store(true)
}

func (t *tracer) stop() {
	if t == nil {
		return
	}
	t.on.Store(false)
	t.tel = t.tel.Merge(telemetry.Capture().Diff(t.tel0))
}

// collect adds the records of the current instance's wrappers to the
// totals and lets the wrappers go. Call it once the instance is idle.
func (t *tracer) collect() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.instance = 0
	for name, q := range t.queues {
		if q != nil {
			s, n := q.stats()
			t.calls[name].merge(&s)
			t.handles[name] += n
			t.queues[name] = nil
		}
	}
	if t.kvStore != nil {
		t.kvStore.mu.Lock()
		t.kv.merge(&t.kvStore.storeStats)
		t.kvStore.mu.Unlock()
		t.kvStore = nil
	}
}

// sampled reports whether request n is one the tracer records.
func (t *tracer) sampled(n uint64) bool {
	return t != nil && n%sampleEvery == 0 && t.on.Load()
}

func (t *tracer) record(name int, id, parent, conn, req uint64, start, end time.Time) {
	if id == 0 {
		id = 0xff<<56 | t.roots.Add(1)
	}
	s := span{id, parent, name, start.Sub(t.t0).Nanoseconds(), end.Sub(t.t0).Nanoseconds(), conn, req}
	t.mu.Lock()
	if t.instance < maxSpans/instances {
		t.spans = append(t.spans, s)
		t.instance++
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// encoded records the time a sampled Start* call took from t0.
func (t *tracer) encoded(n uint64, t0 time.Time) {
	if !t.sampled(n) || t0.IsZero() {
		return
	}
	t.encodeNs.Add(uint64(time.Since(t0)))
	t.encodeN.Add(1)
}

// request records sampled request n of a connection: issued at sent, its
// Recv call started at recv and returned at end.
func (t *tracer) request(conn, n uint64, sent, recv, end time.Time) {
	if !t.sampled(n) || sent.IsZero() || recv.IsZero() {
		return
	}
	t.recvNs.Add(uint64(end.Sub(recv)))
	t.recvN.Add(1)
	t.record(spanClientRequest, spanID(1, conn, n), 0, conn, n, sent, end)
}

// nsSample converts a call time to a sample, saturating.
func nsSample(d time.Duration) uint32 {
	return uint32(min(max(d, 0), math.MaxUint32))
}

// ---- queue and handle ----

// callStats is one handle's record of the calls it timed.
type callStats struct {
	insTimed, insNs           uint64
	delCalls, delTimed, delNs uint64   // delCalls is the delete sampling clock
	requested, returned       uint64   // items asked of and returned by DeleteMinN
	ns                        []uint32 // every timed call
}

func (a *callStats) merge(b *callStats) {
	a.insTimed += b.insTimed
	a.insNs += b.insNs
	a.delCalls += b.delCalls
	a.delTimed += b.delTimed
	a.delNs += b.delNs
	a.requested += b.requested
	a.returned += b.returned
	a.ns = append(a.ns, b.ns...)
}

// tracedQueue wraps the queue below one layer. Its handles forward every
// call through the pq capability helpers, so the wrapped queue behaves
// exactly as the bare one; bench_test.go checks that.
type tracedQueue struct {
	inner pq.Queue
	tr    *tracer
	name  int

	mu      sync.Mutex
	handles []*tracedHandle
}

// growingQueue is a tracedQueue over a queue that implements pq.Grower,
// so the handle pool still sizes the structure through the wrapper.
type growingQueue struct{ *tracedQueue }

func (g growingQueue) EnsureHandles(p int) { g.inner.(pq.Grower).EnsureHandles(p) }

// queue wraps q as the layer below name; a nil tracer returns q itself.
func (t *tracer) queue(q pq.Queue, name int) pq.Queue {
	if t == nil {
		return q
	}
	tq := &tracedQueue{inner: q, tr: t, name: name}
	t.mu.Lock()
	t.queues[name] = tq
	t.mu.Unlock()
	if _, ok := q.(pq.Grower); ok {
		return growingQueue{tq}
	}
	return tq
}

func (q *tracedQueue) Name() string { return q.inner.Name() }

func (q *tracedQueue) Handle() pq.Handle {
	h := &tracedHandle{q: q, inner: q.inner.Handle()}
	q.mu.Lock()
	q.handles = append(q.handles, h)
	q.mu.Unlock()
	return h
}

func (q *tracedQueue) Close() error { return pq.Close(q.inner) }

func (q *tracedQueue) PeekMin() (key, value uint64, ok bool) { return pq.PeekMin(q.inner) }

// stats sums the handles' records. Call it once the handles are idle.
func (q *tracedQueue) stats() (s callStats, handles int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, h := range q.handles {
		s.merge(&h.st)
	}
	return s, len(q.handles)
}

type tracedHandle struct {
	q     *tracedQueue
	inner pq.Handle
	st    callStats
}

func (h *tracedHandle) Insert(key, value uint64)                { h.inner.Insert(key, value) }
func (h *tracedHandle) DeleteMin() (key, value uint64, ok bool) { return h.inner.DeleteMin() }
func (h *tracedHandle) Flush()                                  { pq.Flush(h.inner) }
func (h *tracedHandle) PeekMin() (key, value uint64, ok bool)   { return pq.PeekMin(h.inner) }

// InsertN times the call when the batch's request is sampled. The items
// carry their request (itemValue), which joins the span to the spans of
// the layers above it.
func (h *tracedHandle) InsertN(kvs []pq.KV) {
	tr := h.q.tr
	if len(kvs) == 0 || !tr.on.Load() {
		pq.InsertN(h.inner, kvs)
		return
	}
	conn, req := splitValue(kvs[0].Value)
	if req%sampleEvery != 0 {
		pq.InsertN(h.inner, kvs)
		return
	}
	t0 := time.Now()
	pq.InsertN(h.inner, kvs)
	t1 := time.Now()
	h.st.insTimed++
	h.st.insNs += uint64(t1.Sub(t0))
	h.st.ns = append(h.st.ns, nsSample(t1.Sub(t0)))
	level := spanLevel[h.q.name]
	tr.record(h.q.name, spanID(level, conn, req), spanID(level-1, conn, req), conn, req, t0, t1)
}

// DeleteMinN times every sampleEvery-th call. A delete carries no items
// in, so its span is a root.
func (h *tracedHandle) DeleteMinN(dst []pq.KV, n int) int {
	tr := h.q.tr
	if !tr.on.Load() {
		return pq.DeleteMinN(h.inner, dst, n)
	}
	h.st.delCalls++
	h.st.requested += uint64(max(min(n, len(dst)), 0))
	if h.st.delCalls%sampleEvery != 0 {
		got := pq.DeleteMinN(h.inner, dst, n)
		h.st.returned += uint64(got)
		return got
	}
	t0 := time.Now()
	got := pq.DeleteMinN(h.inner, dst, n)
	t1 := time.Now()
	h.st.returned += uint64(got)
	h.st.delTimed++
	h.st.delNs += uint64(t1.Sub(t0))
	h.st.ns = append(h.st.ns, nsSample(t1.Sub(t0)))
	tr.record(h.q.name, 0, 0, 0, 0, t0, t1)
	return got
}

// ---- store ----

// tracedStore wraps the durable tier's kv.Store. It times every Append,
// Sync and Update and counts the bytes handed to the store.
type tracedStore struct {
	kv.Store
	tr *tracer

	mu sync.Mutex
	storeStats
}

type storeStats struct {
	appends, appendNs uint64
	bytes             uint64 // Append data plus Update Set values
	syncNs, updateNs  []uint32
}

func (a *storeStats) merge(b *storeStats) {
	a.appends += b.appends
	a.appendNs += b.appendNs
	a.bytes += b.bytes
	a.syncNs = append(a.syncNs, b.syncNs...)
	a.updateNs = append(a.updateNs, b.updateNs...)
}

// store wraps s; a nil tracer returns s itself.
func (t *tracer) store(s kv.Store) kv.Store {
	if t == nil {
		return s
	}
	ts := &tracedStore{Store: s, tr: t}
	t.mu.Lock()
	t.kvStore = ts
	t.mu.Unlock()
	return ts
}

func (s *tracedStore) Append(key string, data []byte) error {
	if !s.tr.on.Load() {
		return s.Store.Append(key, data)
	}
	t0 := time.Now()
	err := s.Store.Append(key, data)
	t1 := time.Now()
	s.mu.Lock()
	s.appends++
	s.appendNs += uint64(t1.Sub(t0))
	s.bytes += uint64(len(data))
	n := s.appends
	s.mu.Unlock()
	if n%sampleEvery == 0 {
		s.tr.record(spanKVAppend, 0, 0, 0, 0, t0, t1)
	}
	return err
}

func (s *tracedStore) Sync() error {
	if !s.tr.on.Load() {
		return s.Store.Sync()
	}
	t0 := time.Now()
	err := s.Store.Sync()
	t1 := time.Now()
	s.mu.Lock()
	s.syncNs = append(s.syncNs, nsSample(t1.Sub(t0)))
	n := len(s.syncNs)
	s.mu.Unlock()
	if n%sampleEvery == 0 {
		s.tr.record(spanKVSync, 0, 0, 0, 0, t0, t1)
	}
	return err
}

func (s *tracedStore) Update(fn func(kv.Tx) error) error {
	if !s.tr.on.Load() {
		return s.Store.Update(fn)
	}
	var set uint64
	t0 := time.Now()
	err := s.Store.Update(func(tx kv.Tx) error { return fn(countingTx{tx, &set}) })
	t1 := time.Now()
	s.mu.Lock()
	s.updateNs = append(s.updateNs, nsSample(t1.Sub(t0)))
	if err == nil {
		s.bytes += set
	}
	s.mu.Unlock()
	s.tr.record(spanKVUpdate, 0, 0, 0, 0, t0, t1)
	return err
}

// countingTx counts the bytes an Update batch sets.
type countingTx struct {
	kv.Tx
	set *uint64
}

func (tx countingTx) Set(key string, val []byte) {
	*tx.set += uint64(len(val))
	tx.Tx.Set(key, val)
}

// ---- listener and connections ----

// ioStats counts one side's socket calls.
type ioStats struct {
	reads, readBytes, readNs    atomic.Uint64
	writes, writeBytes, writeNs atomic.Uint64
}

type tracedListener struct {
	net.Listener
	tr *tracer
}

// listener wraps the server's listener so the connections it accepts are
// counted; a nil tracer returns ln itself.
func (t *tracer) listener(ln net.Listener) net.Listener {
	if t == nil {
		return ln
	}
	return tracedListener{ln, t}
}

func (l tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{c, l.tr, &l.tr.server}, nil
}

// clientConn wraps a client's connection; a nil tracer returns nc itself.
func (t *tracer) clientConn(nc net.Conn) net.Conn {
	if t == nil {
		return nc
	}
	return &tracedConn{nc, t, &t.client}
}

type tracedConn struct {
	net.Conn
	tr *tracer
	st *ioStats
}

func (c *tracedConn) Read(p []byte) (int, error) {
	if !c.tr.on.Load() {
		return c.Conn.Read(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.st.readNs.Add(uint64(time.Since(t0)))
	c.st.reads.Add(1)
	c.st.readBytes.Add(uint64(n))
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	if !c.tr.on.Load() {
		return c.Conn.Write(p)
	}
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.st.writeNs.Add(uint64(time.Since(t0)))
	c.st.writes.Add(1)
	c.st.writeBytes.Add(uint64(n))
	return n, err
}

// ---- spans out ----

// selfNs returns the mean self time of the spans named name that have
// children: each one's duration minus the part of it its children cover.
func (t *tracer) selfNs(name int) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	byID := make(map[uint64]int, len(t.spans))
	for i, s := range t.spans {
		if s.name == name {
			byID[s.id] = i
		}
	}
	children := make(map[int][][2]int64)
	for _, s := range t.spans {
		if p, ok := byID[s.parent]; ok && s.parent != 0 {
			children[p] = append(children[p], [2]int64{s.start, s.end})
		}
	}
	var sum float64
	for p, cs := range children {
		parent := t.spans[p]
		sort.Slice(cs, func(i, j int) bool { return cs[i][0] < cs[j][0] })
		covered, reach := int64(0), parent.start
		for _, c := range cs {
			lo, hi := max(c[0], reach), min(c[1], parent.end)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		sum += float64(parent.end - parent.start - covered)
	}
	return ratio(sum, float64(len(children)))
}

// writeSpans writes the spans as JSON: the field names once, then one
// array per span.
func (t *tracer) writeSpans(file string) error {
	if err := os.MkdirAll(filepath.Dir(file), 0o755); err != nil {
		return err
	}
	f, err := os.Create(file)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	t.mu.Lock()
	fmt.Fprintf(w, `{"fields":["id","parent","name","start_ns","end_ns","conn","req"],"dropped":%d,"spans":[`, t.dropped)
	var buf []byte
	for i, s := range t.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ",\n"...)
		}
		buf = append(buf, '[')
		buf = strconv.AppendUint(buf, s.id, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.parent, 10)
		buf = append(buf, `,"`...)
		buf = append(buf, spanNames[s.name]...)
		buf = append(buf, `",`...)
		buf = strconv.AppendInt(buf, s.start, 10)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, s.end, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.conn, 10)
		buf = append(buf, ',')
		buf = strconv.AppendUint(buf, s.req, 10)
		buf = append(buf, ']')
		w.Write(buf)
	}
	t.mu.Unlock()
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- process ----

// procStats are process counters; a difference of two covers a phase.
type procStats struct {
	cpu             time.Duration // user plus system
	gcCPU, totalCPU float64       // runtime/metrics CPU-class estimates, s
	allocs          uint64        // heap allocations
}

func readProc() procStats {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	return procStats{
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcCPU:    s[0].Value.Float64(),
		totalCPU: s[1].Value.Float64(),
		allocs:   s[2].Value.Uint64(),
	}
}

func (a procStats) minus(b procStats) procStats {
	return procStats{a.cpu - b.cpu, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocs - b.allocs}
}

func (a procStats) plus(b procStats) procStats {
	return procStats{a.cpu + b.cpu, a.gcCPU + b.gcCPU, a.totalCPU + b.totalCPU, a.allocs + b.allocs}
}

// watchMemory samples, every 10 ms until the returned func is called, the
// memory the Go runtime holds from the OS (mapped and not returned), and
// that func returns the most it saw, in MiB. Unlike the process's getrusage
// peak it can cover the measured rounds alone: on net-durable the getrusage
// peak is set during recovery, where it reads 46 or 64 MiB depending on
// where the collector's cycles happen to fall.
func watchMemory() (peak func() float64) {
	quit, out := make(chan struct{}), make(chan float64)
	go func() {
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		most := heldMiB()
		for {
			select {
			case <-quit:
				out <- max(most, heldMiB())
				return
			case <-tick.C:
				most = max(most, heldMiB())
			}
		}
	}()
	return func() float64 {
		close(quit)
		return <-out
	}
}

func heldMiB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-s[1].Value.Uint64()) / (1 << 20)
}

// peakRSSMiB is the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
