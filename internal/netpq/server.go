// Server: the pqd service loop. Each connection is served by one
// goroutine that works in bursts: it executes every request the
// connection's FrameReader already holds against a pq.Pool-acquired
// handle, appending each response to one write buffer, and only when the
// next read could block (or the buffer passes flushLen, or the stream
// ends) does it commit the burst and send the whole buffer with one
// Write. That shape buys three things:
//
//   - One durability wait per burst: on a durable queue the handle
//     defers its commits (pq.Committer), so a pipelined window of
//     mutating requests rides one group commit instead of one each, and
//     no response leaves before the records it acknowledges are synced.
//   - One syscall per burst in each direction, with no goroutine hop
//     between executing a request and writing its response.
//   - Backpressure with a defined failure mode: while a write waits for
//     the client to drain its socket the loop reads nothing, so TCP flow
//     control pushes back on the client (Stats.WriteStalls); a write
//     still unfinished after StallTimeout evicts the connection
//     (Stats.Drops) instead of anchoring server memory forever.
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
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/pq"
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
// usable: dynamic queue instantiation and the default stall timeout.
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
	// StallTimeout is the write deadline of each burst's responses: a
	// client that leaves them undrained in its socket that long is
	// evicted (0 = 5s).
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
	WriteStalls uint64 // response writes that waited for the client to drain its socket
	Drops       uint64 // slow-consumer evictions: writes that hit StallTimeout
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
// NewServer, start with Serve, stop with Close.
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
		pool: pq.NewPool(q, pq.PoolOptions{}),
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
	if s.closed.Load() {
		// Close ran before ln was known, so it could not close it.
		ln.Close()
		return nil
	}
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Check closed, register and count the handler under one hold of
		// mu. Close sets closed before it takes mu to close the
		// registered conns, so each conn is either closed here or there,
		// and wg.Add always happens before Close's wg.Wait.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
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

// CloseQueues closes the server (Close: no handler still holds a handle
// once it returns), then every served queue: each pool is closed
// (flushing its handles, then closing the inner queue if it implements
// pq.Closer — a durable queue takes its final snapshot and syncs its log
// here). The first error is returned, but every queue is closed
// regardless.
func (s *Server) CloseQueues() error {
	_ = s.Close() // its only error is the listener's, which the queues do not depend on
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

// flushLen is the write-buffer size that ends a burst early: a client
// that pipelines more than this many response bytes gets them in pieces
// rather than growing the buffer without bound.
const flushLen = 64 << 10

// stallProbe is the first write deadline of a burst's responses. A
// socket with room takes a whole burst in microseconds, so a write still
// unfinished at this deadline counts as a stall (Stats.WriteStalls).
const stallProbe = time.Millisecond

// conn is the state of one connection, owned by its one goroutine.
type conn struct {
	s    *Server
	nc   net.Conn
	wbuf []byte // the burst's encoded responses, not yet written
	nout uint64 // response frames in wbuf

	// Scratch for decoded insert pairs and deleted items, reused across
	// requests.
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

// handleConn runs the connection's loop and owns its teardown.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	s.connsOpened.Add(1)
	s.connsActive.Add(1)
	c := &conn{
		s:   s,
		nc:  nc,
		kvs: make([]pq.KV, 0, MaxBatch),
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetNoDelay(true) // pipelined request/response traffic; latency over segment count
	}
	err := c.loop()
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

// loop reads, serves, commits and writes until the stream ends, a fatal
// protocol violation occurs, a commit fails or a write fails. Requests
// are read through one FrameReader, so a pipelined burst costs one read
// syscall however many frames it holds; the burst's responses go out
// together once the reader holds no further complete request.
func (c *conn) loop() error {
	fr := NewFrameReader(c.nc)
	for {
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
			if ferr := c.flush(); ferr != nil {
				return ferr
			}
			return err
		}
		c.s.framesIn.Add(1)
		if fatal, err := c.serve(&f); fatal {
			if ferr := c.flush(); ferr != nil {
				return ferr
			}
			return err
		}
		if !fr.Buffered() || len(c.wbuf) >= flushLen {
			if err := c.flush(); err != nil {
				return err
			}
		}
	}
}

// flush ends a burst: one Commit makes every operation the burst logged
// durable, then one Write under the StallTimeout deadline sends all its
// responses. A failed commit returns with the responses unwritten: the
// operations they would acknowledge may never be durable, so the
// connection closes without answering them.
func (c *conn) flush() error {
	if len(c.wbuf) == 0 {
		return nil
	}
	if c.handle != nil {
		if err := c.handle.Commit(); err != nil {
			return fmt.Errorf("commit failed, %d responses withheld: %w", c.nout, err)
		}
	}
	// A socket with room takes the whole burst at once, so a write that
	// misses the short stallProbe deadline is waiting for the client to
	// drain its socket; the rest of it then gets StallTimeout.
	c.nc.SetWriteDeadline(time.Now().Add(stallProbe))
	n, err := c.nc.Write(c.wbuf)
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.s.writeStalls.Add(1)
		c.nc.SetWriteDeadline(time.Now().Add(c.s.opts.StallTimeout))
		if _, err = c.nc.Write(c.wbuf[n:]); errors.Is(err, os.ErrDeadlineExceeded) {
			c.s.drops.Add(1)
			return fmt.Errorf("evicted after %v write stall", c.s.opts.StallTimeout)
		}
	}
	if err != nil {
		return err
	}
	c.s.framesOut.Add(c.nout)
	c.wbuf, c.nout = c.wbuf[:0], 0
	return nil
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
		start := len(c.wbuf)
		c.send(Frame{Op: OpDeleteMin | RespBit, Req: f.Req, Count: uint16(got)})
		c.wbuf = AppendKVs(c.wbuf, c.kvs[:got])
		// Patch the length prefix: AppendFrame wrote it for an empty
		// payload before the pairs were appended.
		putFrameLen(c.wbuf[start:], HeaderLen+got*KVLen)
	case OpPing:
		if len(f.Payload) > MaxPing {
			c.sendErr(f.Req, ErrCodeMalformed, fmt.Sprintf("ping payload above %d bytes", MaxPing))
			return false, nil
		}
		c.send(Frame{Op: OpPing | RespBit, Req: f.Req, Payload: f.Payload})
	case OpStats:
		st := c.s.Stats()
		start := len(c.wbuf)
		c.send(Frame{Op: OpStats | RespBit, Req: f.Req, Count: statsWords})
		for _, v := range [statsWords]uint64{
			st.ConnsOpened, st.ConnsActive, st.FramesIn, st.FramesOut,
			st.ItemsIn, st.ItemsOut, st.WriteStalls, st.Drops,
		} {
			c.wbuf = appendUint64(c.wbuf, v)
		}
		putFrameLen(c.wbuf[start:], HeaderLen+statsWords*8)
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
	// The loop commits each burst before writing its responses, so
	// mutating calls need not wait for durability one by one.
	c.handle.DeferCommit()
	canonical := sq.q.Name()
	if i := strings.IndexByte(sq.id, '#'); i >= 0 {
		canonical += sq.id[i:]
	}
	c.send(Frame{Op: OpHello | RespBit, Req: f.Req, Count: Version, Payload: []byte(canonical)})
	return false, nil
}

// send appends the encoding of response f to the burst's write buffer.
func (c *conn) send(f Frame) {
	c.wbuf = AppendFrame(c.wbuf, f)
	c.nout++
}

// sendErr appends an error frame.
func (c *conn) sendErr(req uint32, code uint16, msg string) {
	c.send(Frame{Op: OpError, Req: req, Count: code, Payload: []byte(msg)})
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
