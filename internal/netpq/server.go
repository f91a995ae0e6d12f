// Server: the pqd service loop. Each connection is split into a
// dispatcher (read, decode, execute against a pq.Pool-acquired handle,
// encode) and a responder (drain a bounded queue of encoded frames onto
// the socket) — the buffered-responder split of the matching-engine
// lineage this service is modeled on. The split buys two things:
//
//   - Pipelining without head-of-line writes: while the responder is in a
//     write syscall, the dispatcher keeps decoding and executing the next
//     pipelined requests, so queue work and socket work overlap.
//   - Backpressure with a defined failure mode: the queue between the two
//     is bounded. A full queue first stalls the dispatcher (it stops
//     reading, TCP flow control pushes back on the client — counted by
//     net-write-stall); a consumer that stays stuck past StallTimeout is
//     evicted (net-drop) instead of anchoring server memory forever.
//
// Handle lifecycle: one inner handle per connection, acquired from the
// served queue's pool at Hello and released on disconnect. Release
// flushes handle buffers back to the shared structure (the pool's
// contract), so items in flight through a buffering queue survive their
// connection — the e2e conservation test pins this.
package netpq

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

// NewQueueFunc constructs a registry queue. spec is the registry string
// ("klsm256", "multiq-s4-b8"); id is the full queue id as served,
// including any "#instance" tag ("linden#bids"), so a constructor that
// attaches per-instance state — a durable log directory, most notably —
// can key it by the instance, not just the spec. The server is handed a
// func (cpq.NewQueue adapted) instead of importing cpq, which keeps
// netpq importable from inside the module's internal tree.
type NewQueueFunc func(spec, id string, threads int) (pq.Queue, error)

// Options configures a Server. The zero value plus a NewQueue func is
// usable: dynamic queue instantiation, default write-queue depth and
// stall timeout.
type Options struct {
	// NewQueue constructs queues from spec strings (required).
	NewQueue NewQueueFunc
	// DefaultQueue is the queue id served to a Hello with an empty
	// payload ("" leaves empty Hellos rejected with ErrCodeQueue).
	DefaultQueue string
	// Preload lists queue ids ("spec" or "spec#instance") to construct
	// at startup, so the first Hello pays no construction latency.
	Preload []string
	// Static refuses Hellos for queue ids not preloaded (and not the
	// default), instead of instantiating them on demand.
	Static bool
	// PoolHandles caps each served queue's handle pool (0 = the pool's
	// default, max(initial, 4·GOMAXPROCS)).
	PoolHandles int
	// WriteQueue is the per-connection responder queue depth in frames
	// (0 = 64). Depth bounds per-connection server memory at roughly
	// WriteQueue · MaxFrameLen bytes in the worst case.
	WriteQueue int
	// StallTimeout is how long one response may stay unqueueable before
	// the connection is evicted (0 = 5s).
	StallTimeout time.Duration
	// Logf receives connection lifecycle and error lines (nil = silent).
	Logf func(format string, args ...any)
}

// Stats are the server's cumulative counters, served to clients through
// OpStats and readable in-process via Server.Stats. All fields count
// since server start; ConnsActive is a gauge.
type Stats struct {
	ConnsOpened uint64
	ConnsActive uint64
	FramesIn    uint64
	FramesOut   uint64
	ItemsIn     uint64 // keys inserted
	ItemsOut    uint64 // keys deleted (excluding empty-delete shortfall)
	WriteStalls uint64
	Drops       uint64 // slow-consumer evictions
}

// statsWords is the OpStats payload layout: the Stats fields in order.
const statsWords = 8

// servedQueue is one queue instance exposed under a queue id, with its
// elastic handle pool.
type servedQueue struct {
	id   string
	q    pq.Queue
	pool *pq.Pool
}

// Server serves registry queues over the netpq protocol. Create with
// NewServer, start with Serve (or ListenAndServe), stop with Close.
type Server struct {
	opts Options

	mu     sync.Mutex
	queues map[string]*servedQueue
	conns  map[net.Conn]struct{}
	ln     net.Listener

	closed atomic.Bool
	wg     sync.WaitGroup

	connsOpened atomic.Uint64
	connsActive atomic.Int64
	framesIn    atomic.Uint64
	framesOut   atomic.Uint64
	itemsIn     atomic.Uint64
	itemsOut    atomic.Uint64
	writeStalls atomic.Uint64
	drops       atomic.Uint64
}

// NewServer returns an unstarted server. It constructs the default and
// preloaded queues eagerly, so a bad spec fails here rather than at the
// first Hello.
func NewServer(opts Options) (*Server, error) {
	if opts.NewQueue == nil {
		return nil, errors.New("netpq: Options.NewQueue is required")
	}
	if opts.WriteQueue <= 0 {
		opts.WriteQueue = 64
	}
	if opts.StallTimeout <= 0 {
		opts.StallTimeout = 5 * time.Second
	}
	s := &Server{
		opts:   opts,
		queues: make(map[string]*servedQueue),
		conns:  make(map[net.Conn]struct{}),
	}
	preload := opts.Preload
	if opts.DefaultQueue != "" {
		preload = append([]string{opts.DefaultQueue}, preload...)
	}
	for _, id := range preload {
		if _, err := s.queueFor(id, true); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// queueFor resolves a queue id to its served instance, constructing it
// when allowed. The id grammar is "spec" or "spec#instance": the spec is
// anything the registry accepts, the instance tag distinguishes multiple
// instances of one spec (the order book's "linden#bids"/"linden#asks").
func (s *Server) queueFor(id string, construct bool) (*servedQueue, error) {
	spec := id
	if i := strings.IndexByte(id, '#'); i >= 0 {
		spec = id[:i]
		inst := id[i+1:]
		if inst == "" || len(inst) > 32 || strings.ContainsFunc(inst, func(r rune) bool {
			return !('a' <= r && r <= 'z' || 'A' <= r && r <= 'Z' || '0' <= r && r <= '9' || r == '_' || r == '-')
		}) {
			return nil, fmt.Errorf("netpq: bad instance tag in queue id %q", id)
		}
	}
	if spec == "" || len(id) > MaxQueueID {
		return nil, fmt.Errorf("netpq: bad queue id %q", id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if sq, ok := s.queues[id]; ok {
		return sq, nil
	}
	if !construct {
		return nil, fmt.Errorf("netpq: queue %q not served (static server)", id)
	}
	q, err := s.opts.NewQueue(spec, id, 0)
	if err != nil {
		return nil, err
	}
	sq := &servedQueue{
		id:   id,
		q:    q,
		pool: pq.NewPool(q, pq.PoolOptions{MaxHandles: s.opts.PoolHandles}),
	}
	s.queues[id] = sq
	return sq, nil
}

// Stats returns a snapshot of the server counters.
func (s *Server) Stats() Stats {
	return Stats{
		ConnsOpened: s.connsOpened.Load(),
		ConnsActive: uint64(max64(s.connsActive.Load(), 0)),
		FramesIn:    s.framesIn.Load(),
		FramesOut:   s.framesOut.Load(),
		ItemsIn:     s.itemsIn.Load(),
		ItemsOut:    s.itemsOut.Load(),
		WriteStalls: s.writeStalls.Load(),
		Drops:       s.drops.Load(),
	}
}

// ListenAndServe listens on addr ("host:port"; ":0" for an ephemeral
// port) and serves until Close. Addr is readable via Addr once listening.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return s.Serve(ln)
}

// Addr returns the listener address, or nil before Serve.
func (s *Server) Addr() net.Addr {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Serve accepts connections on ln until Close (which closes ln). It
// returns nil on Close and the accept error otherwise.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		if s.closed.Load() {
			conn.Close()
			continue
		}
		s.mu.Lock()
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handleConn(conn)
	}
}

// Close stops accepting, force-closes every live connection (releasing
// their handles back to the pools, flushed) and waits for the handlers.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.mu.Lock()
	ln := s.ln
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

// CloseQueues closes every served queue: each pool is closed (flushing
// and disarming its handles, then closing the inner queue if it
// implements pq.Closer — a durable queue takes its final snapshot and
// syncs its log here). Call after Close has returned, when no handler
// still holds a handle; the first error is returned, but every queue is
// closed regardless.
func (s *Server) CloseQueues() error {
	s.mu.Lock()
	queues := s.queues
	s.queues = make(map[string]*servedQueue)
	s.mu.Unlock()
	var first error
	for _, sq := range queues {
		if err := sq.pool.Close(); err != nil && first == nil {
			first = fmt.Errorf("netpq: closing queue %q: %w", sq.id, err)
		}
	}
	return first
}

// conn is the per-connection state shared by dispatcher and responder.
type conn struct {
	s      *Server
	nc     net.Conn
	tel    *telemetry.Shard
	out    chan []byte // encoded response frames, dispatcher -> responder
	free   chan []byte // recycled frame buffers, responder -> dispatcher
	failed atomic.Bool // responder hit a write error or eviction fired

	// Dispatcher-owned scratch, reused across requests.
	kvs []pq.KV

	// Session state after Hello.
	sq     *servedQueue
	handle *pq.PooledHandle
}

func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// handleConn runs the dispatcher loop and owns connection teardown.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	s.connsOpened.Add(1)
	s.connsActive.Add(1)
	c := &conn{
		s:    s,
		nc:   nc,
		tel:  telemetry.NewShard(),
		out:  make(chan []byte, s.opts.WriteQueue),
		free: make(chan []byte, s.opts.WriteQueue+1),
		kvs:  make([]pq.KV, 0, MaxBatch),
	}
	c.tel.Inc(telemetry.NetConnOpen)
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // pipelined request/response traffic; latency over segment count
	}
	var respondDone sync.WaitGroup
	respondDone.Add(1)
	go func() {
		defer respondDone.Done()
		c.respond()
	}()

	err := c.dispatch()
	close(c.out)
	respondDone.Wait()
	nc.Close()
	if c.handle != nil {
		// Release flushes the inner handle's buffers back to the shared
		// structure, so a connection's buffered items outlive it.
		c.sq.pool.Release(c.handle)
	}
	s.mu.Lock()
	delete(s.conns, nc)
	s.mu.Unlock()
	s.connsActive.Add(-1)
	if err != nil && !errors.Is(err, io.EOF) && !s.closed.Load() {
		s.logf("netpq: %s: %v", nc.RemoteAddr(), err)
	}
}

// dispatch is the connection's read-execute loop. It returns when the
// stream ends, a fatal protocol violation occurs, or the responder died.
// Requests are read through one FrameReader, so a pipelined burst costs
// one read syscall however many frames it holds.
func (c *conn) dispatch() error {
	fr := NewFrameReader(countingReader{c.nc, c.tel})
	for {
		if c.failed.Load() {
			return errors.New("responder failed")
		}
		f, err := fr.ReadFrame()
		if err != nil {
			switch {
			case errors.Is(err, ErrFrameTooSmall):
				c.sendErr(0, ErrCodeMalformed, "length prefix below header size")
			case errors.Is(err, ErrFrameTooLarge):
				c.sendErr(0, ErrCodeTooLarge, fmt.Sprintf("length prefix above %d", MaxFrameLen))
			case errors.Is(err, ErrBadVersion):
				c.sendErr(0, ErrCodeVersion, fmt.Sprintf("server speaks version %d", Version))
			}
			return err
		}
		c.s.framesIn.Add(1)
		c.tel.Inc(telemetry.NetFrameIn)
		if fatal, err := c.serve(&f); fatal {
			return err
		}
	}
}

// countingReader counts the dispatcher's Read calls on its connection
// (net-read); net-read ÷ net-frame-in is the read syscalls per request.
type countingReader struct {
	r   io.Reader
	tel *telemetry.Shard
}

func (cr countingReader) Read(p []byte) (int, error) {
	cr.tel.Inc(telemetry.NetRead)
	return cr.r.Read(p)
}

// serve executes the decoded request f, whose payload aliases the read
// buffer and is not retained past the call. It reports fatal when the
// protocol requires closing the connection.
func (c *conn) serve(f *Frame) (fatal bool, err error) {
	if c.s.closed.Load() {
		c.sendErr(f.Req, ErrCodeShutdown, "server shutting down")
		return true, errors.New("shutdown")
	}
	if c.handle == nil && f.Op != OpHello {
		c.sendErr(f.Req, ErrCodeState, "first frame must be Hello")
		return true, errors.New("operation before Hello")
	}
	switch f.Op {
	case OpHello:
		return c.serveHello(f)
	case OpInsert:
		n := int(f.Count)
		if n < 1 || n > MaxBatch {
			c.sendErr(f.Req, ErrCodeBadBatch, fmt.Sprintf("insert count %d outside [1,%d]", n, MaxBatch))
			return false, nil
		}
		kvs, derr := DecodeKVs(f.Payload, n, c.kvs)
		if derr != nil {
			c.sendErr(f.Req, ErrCodeMalformed, derr.Error())
			return false, nil
		}
		c.kvs = kvs
		pq.InsertN(c.handle, kvs)
		c.s.itemsIn.Add(uint64(n))
		c.send(Frame{Op: OpInsert | RespBit, Req: f.Req, Count: uint16(n)})
	case OpDeleteMin:
		n := int(f.Count)
		if n < 1 || n > MaxBatch {
			c.sendErr(f.Req, ErrCodeBadBatch, fmt.Sprintf("delete count %d outside [1,%d]", n, MaxBatch))
			return false, nil
		}
		if len(f.Payload) != 0 {
			c.sendErr(f.Req, ErrCodeMalformed, "DeleteMin carries no payload")
			return false, nil
		}
		if cap(c.kvs) < n {
			c.kvs = make([]pq.KV, n)
		}
		got := pq.DeleteMinN(c.handle, c.kvs[:n], n)
		c.s.itemsOut.Add(uint64(got))
		buf := c.buffer()
		buf = AppendFrame(buf, Frame{Op: OpDeleteMin | RespBit, Req: f.Req, Count: uint16(got)})
		buf = AppendKVs(buf, c.kvs[:got])
		// Patch the length prefix: AppendFrame wrote it for an empty
		// payload before the pairs were appended.
		putFrameLen(buf, HeaderLen+got*KVLen)
		c.enqueue(buf)
	case OpPing:
		if len(f.Payload) > MaxPing {
			c.sendErr(f.Req, ErrCodeMalformed, fmt.Sprintf("ping payload above %d bytes", MaxPing))
			return false, nil
		}
		c.send(Frame{Op: OpPing | RespBit, Req: f.Req, Payload: f.Payload})
	case OpStats:
		st := c.s.Stats()
		buf := c.buffer()
		buf = AppendFrame(buf, Frame{Op: OpStats | RespBit, Req: f.Req, Count: statsWords})
		for _, v := range [statsWords]uint64{
			st.ConnsOpened, st.ConnsActive, st.FramesIn, st.FramesOut,
			st.ItemsIn, st.ItemsOut, st.WriteStalls, st.Drops,
		} {
			buf = appendUint64(buf, v)
		}
		putFrameLen(buf, HeaderLen+statsWords*8)
		c.enqueue(buf)
	default:
		c.sendErr(f.Req, ErrCodeOpcode, fmt.Sprintf("unknown opcode %#02x", f.Op))
	}
	return false, nil
}

// serveHello resolves the queue id, acquires the connection's handle and
// answers with the canonical id.
func (c *conn) serveHello(f *Frame) (fatal bool, err error) {
	if c.handle != nil {
		c.sendErr(f.Req, ErrCodeState, "duplicate Hello")
		return true, errors.New("duplicate Hello")
	}
	if int(f.Count) < Version {
		c.sendErr(f.Req, ErrCodeVersion, fmt.Sprintf("server speaks version %d", Version))
		return true, errors.New("client version too old")
	}
	id := string(f.Payload)
	if id == "" {
		if c.s.opts.DefaultQueue == "" {
			c.sendErr(f.Req, ErrCodeQueue, "empty queue id and no server default")
			return false, nil
		}
		id = c.s.opts.DefaultQueue
	}
	sq, qerr := c.s.queueFor(id, !c.s.opts.Static)
	if qerr != nil {
		c.sendErr(f.Req, ErrCodeQueue, qerr.Error())
		return false, nil
	}
	c.sq = sq
	c.handle = sq.pool.Acquire()
	canonical := sq.q.Name()
	if i := strings.IndexByte(sq.id, '#'); i >= 0 {
		canonical += sq.id[i:]
	}
	c.send(Frame{Op: OpHello | RespBit, Req: f.Req, Count: Version, Payload: []byte(canonical)})
	return false, nil
}

// send encodes f into a recycled buffer and enqueues it for the responder.
func (c *conn) send(f Frame) {
	c.enqueue(AppendFrame(c.buffer(), f))
}

// sendErr enqueues an error frame.
func (c *conn) sendErr(req uint32, code uint16, msg string) {
	buf := c.buffer()
	buf = AppendFrame(buf, Frame{Op: OpError, Req: req, Count: code, Payload: []byte(msg)})
	c.enqueue(buf)
}

// buffer returns an empty encode buffer, recycled from the responder
// when one is available.
func (c *conn) buffer() []byte {
	select {
	case buf := <-c.free:
		return buf[:0]
	default:
		return make([]byte, 0, LenPrefixLen+HeaderLen+64)
	}
}

// enqueue hands an encoded frame to the responder, implementing the
// backpressure policy: block (stalling the read loop, which stalls the
// client through TCP flow control) when the queue is full, and evict the
// connection when a single frame stays unqueueable past StallTimeout.
func (c *conn) enqueue(buf []byte) {
	if c.failed.Load() {
		return
	}
	select {
	case c.out <- buf:
		return
	default:
	}
	c.s.writeStalls.Add(1)
	c.tel.Inc(telemetry.NetWriteStall)
	t := time.NewTimer(c.s.opts.StallTimeout)
	defer t.Stop()
	select {
	case c.out <- buf:
	case <-t.C:
		// CAS so a responder that failed while we waited doesn't make
		// this count as a second, spurious eviction.
		if c.failed.CompareAndSwap(false, true) {
			c.s.drops.Add(1)
			c.tel.Inc(telemetry.NetDrop)
			c.nc.Close() // unblocks dispatcher read and responder write
			c.s.logf("netpq: %s: evicted after %v write stall", c.nc.RemoteAddr(), c.s.opts.StallTimeout)
		}
	}
}

// respond drains the write queue onto the socket. Writes are coalesced:
// frames are written while more are queued and the socket is flushed...
// there is no bufio layer — instead the responder concatenates every
// queued frame into one write buffer and issues a single Write per
// drain round, which is the batching that matters on loopback.
func (c *conn) respond() {
	var wbuf []byte
	for first := range c.out {
		wbuf = append(wbuf[:0], first...)
		c.recycle(first)
		// Coalesce whatever else is already queued into this write.
	coalesce:
		for len(wbuf) < 64<<10 {
			select {
			case next, ok := <-c.out:
				if !ok {
					break coalesce
				}
				wbuf = append(wbuf, next...)
				c.recycle(next)
			default:
				break coalesce
			}
		}
		nframes := uint64(0) // counted below as frames, not writes
		for off := 0; off < len(wbuf); {
			length := int(uint32(wbuf[off])<<24 | uint32(wbuf[off+1])<<16 | uint32(wbuf[off+2])<<8 | uint32(wbuf[off+3]))
			off += LenPrefixLen + length
			nframes++
		}
		if _, err := c.nc.Write(wbuf); err != nil {
			c.failed.Store(true)
			c.nc.Close() // unblock a dispatcher parked in a read
			// Drain remaining frames so the dispatcher never blocks on a
			// dead responder.
			for range c.out {
			}
			return
		}
		c.s.framesOut.Add(nframes)
		c.tel.Add(telemetry.NetFrameOut, nframes)
	}
}

// recycle returns a drained frame buffer to the dispatcher's free list.
func (c *conn) recycle(buf []byte) {
	select {
	case c.free <- buf:
	default:
	}
}

// putFrameLen patches the length prefix of the frame starting at buf[0]
// — used when a payload is appended after AppendFrame wrote the header.
func putFrameLen(buf []byte, length int) {
	buf[0] = byte(length >> 24)
	buf[1] = byte(length >> 16)
	buf[2] = byte(length >> 8)
	buf[3] = byte(length)
}

func appendUint64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
