// End-to-end tests over real loopback TCP: the server, the client, the
// pool-backed handle lifecycle and the backpressure policy, checked with
// the chaos-style logged-drain item-conservation argument — every value
// inserted through any connection is deleted exactly once across the
// worker connections plus the post-phase drain, with its original key.
package netpq_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpq"
	"cpq/internal/netpq"
	"cpq/internal/pq"
)

func newLoopbackServer(t *testing.T, opts netpq.Options) (*netpq.Server, string) {
	t.Helper()
	if opts.NewQueue == nil {
		opts.NewQueue = func(spec, _ string, threads int) (pq.Queue, error) {
			if threads < 16 {
				threads = 16 // worker conns + drain conn headroom
			}
			return cpq.NewQueue(spec, cpq.Options{Threads: threads})
		}
	}
	srv, err := netpq.NewServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

// e2eKey derives the deterministic key a (worker, seq) pair inserts, so
// the conservation check can also detect key corruption in flight.
func e2eKey(value uint64) uint64 {
	return (value*0x9e3779b97f4a7c15 ^ value>>29) & 0xffffffff
}

// TestEndToEndConservation runs 8 pipelined client connections against a
// loopback server per queue flavor (buffered, relaxed, strict), then
// drains through a fresh connection and balances the item books.
func TestEndToEndConservation(t *testing.T) {
	const (
		workers  = 8
		rounds   = 150
		batch    = 8
		pipeline = 4
	)
	for _, spec := range []string{"multiq-s4-b8", "klsm128", "linden"} {
		t.Run(spec, func(t *testing.T) {
			_, addr := newLoopbackServer(t, netpq.Options{})
			queueID := spec + "#e2e"

			deleted := make([][]pq.KV, workers)
			var wg sync.WaitGroup
			errs := make(chan error, workers)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					c, err := netpq.Dial(addr, queueID)
					if err != nil {
						errs <- err
						return
					}
					defer c.Close()
					// Alternate insert and delete batches, keeping
					// `pipeline` requests in flight.
					seq := uint64(0)
					kvs := make([]pq.KV, batch)
					nextReq := func(i int) error {
						if i%2 == 0 {
							for j := range kvs {
								v := uint64(w)<<32 | seq
								seq++
								kvs[j] = pq.KV{Key: e2eKey(v), Value: v}
							}
							_, err := c.StartInsertN(kvs)
							return err
						}
						_, err := c.StartDeleteMinN(batch)
						return err
					}
					total := 2 * rounds
					inFlight := 0
					for i := 0; i < total || inFlight > 0; {
						for inFlight < pipeline && i < total {
							if err := nextReq(i); err != nil {
								errs <- err
								return
							}
							i++
							inFlight++
						}
						r, err := c.Recv()
						if err != nil {
							errs <- err
							return
						}
						inFlight--
						if r.Err != nil {
							errs <- r.Err
							return
						}
						if r.Op == netpq.OpDeleteMin|netpq.RespBit {
							deleted[w] = append(deleted[w], r.KVs...)
						}
					}
				}(w)
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}

			// Workers disconnected: the server released their handles,
			// flushing any buffered items (the pool's Release contract).
			// A fresh connection must now see everything that remains.
			drainC, err := netpq.Dial(addr, queueID)
			if err != nil {
				t.Fatal(err)
			}
			defer drainC.Close()
			var drained []pq.KV
			dst := make([]pq.KV, netpq.MaxBatch)
			for empties := 0; empties < 3; {
				got, err := drainC.DeleteMinN(dst, netpq.MaxBatch)
				if err != nil {
					t.Fatal(err)
				}
				if got == 0 {
					empties++
					continue
				}
				empties = 0
				drained = append(drained, dst[:got]...)
			}

			// Conservation forensics: each worker inserted values
			// w<<32|0 .. w<<32|rounds·batch-1, each with key e2eKey(v).
			want := workers * rounds * batch
			seen := make(map[uint64]int, want)
			account := func(kv pq.KV, where string) {
				if kv.Key != e2eKey(kv.Value) {
					t.Fatalf("%s: value %#x carries key %#x, want %#x (key corruption)",
						where, kv.Value, kv.Key, e2eKey(kv.Value))
				}
				w, s := kv.Value>>32, kv.Value&0xffffffff
				if w >= workers || s >= uint64(rounds*batch) {
					t.Fatalf("%s: phantom item %+v (never inserted)", where, kv)
				}
				seen[kv.Value]++
			}
			for w := range deleted {
				for _, kv := range deleted[w] {
					account(kv, fmt.Sprintf("worker %d", w))
				}
			}
			for _, kv := range drained {
				account(kv, "drain")
			}
			for v, n := range seen {
				if n > 1 {
					t.Fatalf("value %#x deleted %d times (duplicate)", v, n)
				}
			}
			if len(seen) != want {
				t.Fatalf("conservation: %d of %d items lost after flush+drain", want-len(seen), want)
			}
		})
	}
}

// TestServerErrorFrames drives the protocol's error surface over a raw
// connection: recoverable codes keep the connection alive, fatal codes
// close it, exactly as PROTOCOL.md specifies.
func TestServerErrorFrames(t *testing.T) {
	_, addr := newLoopbackServer(t, netpq.Options{DefaultQueue: "klsm128"})

	// Each connection keeps one FrameReader: it may read past the frame
	// it returns, so a fresh reader per frame could drop the next one.
	readers := map[net.Conn]*netpq.FrameReader{}
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { nc.Close() })
		readers[nc] = netpq.NewFrameReader(nc)
		return nc
	}
	readFrame := func(nc net.Conn) (netpq.Frame, error) {
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		return readers[nc].ReadFrame()
	}
	expectErr := func(nc net.Conn, code uint16) {
		t.Helper()
		f, err := readFrame(nc)
		if err != nil {
			t.Fatalf("expected error frame, got transport error %v", err)
		}
		if f.Op != netpq.OpError || f.Count != code {
			t.Fatalf("got op %#02x code %d (%s), want error code %d (%s)",
				f.Op, f.Count, string(f.Payload), code, netpq.ErrCodeName(code))
		}
	}
	expectClosed := func(nc net.Conn) {
		t.Helper()
		if _, err := readFrame(nc); err == nil {
			t.Fatal("connection still open, want close")
		} else if !errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
			// A RST surfaces as a read error; any error means closed.
			var ne net.Error
			if errors.As(err, &ne) && ne.Timeout() {
				t.Fatalf("connection still open (read timeout), want close")
			}
		}
	}

	t.Run("op before hello is fatal", func(t *testing.T) {
		nc := dial()
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpDeleteMin, Req: 1, Count: 1}))
		expectErr(nc, netpq.ErrCodeState)
		expectClosed(nc)
	})
	t.Run("bad version is fatal", func(t *testing.T) {
		nc := dial()
		wire := netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpHello, Req: 1, Count: netpq.Version})
		wire[4] = netpq.Version + 9
		nc.Write(wire)
		expectErr(nc, netpq.ErrCodeVersion)
		expectClosed(nc)
	})
	t.Run("undelimitable length is fatal", func(t *testing.T) {
		nc := dial()
		nc.Write([]byte{0, 0, 0, 2, 1, 1})
		expectErr(nc, netpq.ErrCodeMalformed)
		expectClosed(nc)
	})
	t.Run("oversized length is fatal", func(t *testing.T) {
		nc := dial()
		var pfx [4]byte
		binary.BigEndian.PutUint32(pfx[:], netpq.MaxFrameLen+1)
		nc.Write(pfx[:])
		expectErr(nc, netpq.ErrCodeTooLarge)
		expectClosed(nc)
	})
	t.Run("recoverable errors keep the session", func(t *testing.T) {
		nc := dial()
		// Hello for a nonsense queue: ErrCodeQueue, connection lives.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpHello, Req: 1, Count: netpq.Version, Payload: []byte("no-such-queue")}))
		expectErr(nc, netpq.ErrCodeQueue)
		// Retry Hello with the default queue: accepted.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpHello, Req: 2, Count: netpq.Version}))
		f, err := readFrame(nc)
		if err != nil || f.Op != netpq.OpHello|netpq.RespBit {
			t.Fatalf("hello retry: %+v, %v", f, err)
		}
		if got := string(f.Payload); got != "klsm128" {
			t.Fatalf("canonical queue = %q, want klsm128", got)
		}
		// Bad batch count: ErrCodeBadBatch, connection lives.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpDeleteMin, Req: 3, Count: 0}))
		expectErr(nc, netpq.ErrCodeBadBatch)
		// Unknown opcode: ErrCodeOpcode, connection lives.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: 0x7e, Req: 4}))
		expectErr(nc, netpq.ErrCodeOpcode)
		// Insert payload/count mismatch: ErrCodeMalformed, connection lives.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpInsert, Req: 5, Count: 2, Payload: make([]byte, netpq.KVLen)}))
		expectErr(nc, netpq.ErrCodeMalformed)
		// The session still works end to end.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpInsert, Req: 6, Count: 1,
			Payload: netpq.AppendKVs(nil, []pq.KV{{Key: 13, Value: 37}})}))
		f, err = readFrame(nc)
		if err != nil || f.Op != netpq.OpInsert|netpq.RespBit || f.Count != 1 {
			t.Fatalf("insert after errors: %+v, %v", f, err)
		}
		// Duplicate Hello: fatal.
		nc.Write(netpq.AppendFrame(nil, netpq.Frame{Op: netpq.OpHello, Req: 7, Count: netpq.Version}))
		expectErr(nc, netpq.ErrCodeState)
		expectClosed(nc)
	})
}

// TestClientRoundTrip exercises the synchronous client surface plus the
// ping and stats opcodes against one server.
func TestClientRoundTrip(t *testing.T) {
	_, addr := newLoopbackServer(t, netpq.Options{DefaultQueue: "multiq-s4-b8"})
	c, err := netpq.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := c.QueueName(); got != "multiq-s4-b8" {
		t.Fatalf("QueueName = %q", got)
	}
	kvs := make([]pq.KV, 32)
	for i := range kvs {
		kvs[i] = pq.KV{Key: uint64(100 - i), Value: uint64(i)}
	}
	if err := c.InsertN(kvs); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Ping([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	dst := make([]pq.KV, 64)
	total := 0
	for total < len(kvs) {
		got, err := c.DeleteMinN(dst, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got == 0 {
			break
		}
		total += got
	}
	if total != len(kvs) {
		t.Fatalf("deleted %d of %d", total, len(kvs))
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ItemsIn != uint64(len(kvs)) || st.ItemsOut != uint64(total) || st.FramesIn == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

// readCountingListener counts the Read calls made on the connections it
// accepts.
type readCountingListener struct {
	net.Listener
	reads *atomic.Int64
}

func (l readCountingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return readCountingConn{nc, l.reads}, nil
}

type readCountingConn struct {
	net.Conn
	reads *atomic.Int64
}

func (c readCountingConn) Read(p []byte) (int, error) {
	c.reads.Add(1)
	return c.Conn.Read(p)
}

// TestServerReadsPipelinedBurstAtOnce pins the server's read path: a
// pipelined burst of request frames that arrives in one client write is
// read off the socket in one call, not one or more calls per frame, and
// the server's Stats count every frame it read.
func TestServerReadsPipelinedBurstAtOnce(t *testing.T) {
	const frames = 64

	srv, err := netpq.NewServer(netpq.Options{
		DefaultQueue: "multiq-s4-b8",
		NewQueue: func(spec, _ string, threads int) (pq.Queue, error) {
			return cpq.NewQueue(spec, cpq.Options{Threads: 4})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var reads atomic.Int64
	go srv.Serve(readCountingListener{ln, &reads})
	defer srv.Close()

	c, err := netpq.Dial(ln.Addr().String(), "")
	if err != nil {
		t.Fatal(err)
	}
	afterHello := reads.Load()
	kvs := make([]pq.KV, 8)
	for i := 0; i < frames; i++ {
		if i%2 == 0 {
			_, err = c.StartInsertN(kvs)
		} else {
			_, err = c.StartDeleteMinN(len(kvs))
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < frames; i++ { // the first Recv flushes the whole burst
		if r, err := c.Recv(); err != nil || r.Err != nil {
			t.Fatalf("response %d: %+v, %v", i, r, err)
		}
	}
	burstReads := reads.Load() - afterHello
	c.Close()
	srv.Close()

	// The burst may arrive in more than one piece; one read per frame or
	// more (the unbuffered path read 2 or 3 times per frame) cannot pass.
	if burstReads > frames/8 {
		t.Fatalf("server read the %d-frame burst in %d calls, want at most %d", frames, burstReads, frames/8)
	}
	if got := srv.Stats().FramesIn; got != frames+1 {
		t.Fatalf("FramesIn = %d, want %d", got, frames+1)
	}
	t.Logf("%d reads for %d frames", burstReads, frames)
}

// TestSlowConsumerEviction pins the backpressure failure mode: a client
// that sends requests but never reads responses must eventually be
// evicted (Stats.Drops), not anchor server memory forever. Small responses
// can drip through the jammed socket as the kernel frees bytes, so the
// pump requests max-batch deletes of a prefilled queue: a burst of 16 KiB
// response frames cannot complete through a zero-window trickle, so its
// write waits (a stall) and finally exceeds the stall timeout.
func TestSlowConsumerEviction(t *testing.T) {
	srv, addr := newLoopbackServer(t, netpq.Options{
		DefaultQueue: "globallock",
		StallTimeout: 200 * time.Millisecond,
	})
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	if tc, ok := nc.(*net.TCPConn); ok {
		tc.SetReadBuffer(4096) // shrink the receive window so responses jam quickly
	}
	c, err := netpq.NewClient(nc, "")
	if err != nil {
		t.Fatal(err)
	}

	// Prefill through the session so delete responses are max-size.
	kvs := make([]pq.KV, netpq.MaxBatch)
	for i := range kvs {
		kvs[i] = pq.KV{Key: uint64(i), Value: uint64(i)}
	}
	for b := 0; b < 64; b++ {
		if err := c.InsertN(kvs); err != nil {
			t.Fatal(err)
		}
	}

	// Pump pipelined max-batch deletes and never Recv. The flush may
	// itself block once the server jams, so it runs under a deadline and
	// keeps probing until the eviction closes the connection.
	stop := make(chan struct{})
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			nc.SetWriteDeadline(time.Now().Add(time.Second))
			if _, err := c.StartDeleteMinN(netpq.MaxBatch); err != nil {
				continue
			}
			if err := c.Flush(); err != nil {
				continue
			}
		}
	}()
	defer close(stop)

	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		st := srv.Stats()
		if st.Drops >= 1 {
			if st.WriteStalls == 0 {
				t.Fatal("eviction without a recorded write stall")
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no eviction after 15s: stats %+v", srv.Stats())
}

// TestCloseWhileDialing pins Close against a stream of new connections:
// every conn Serve accepts is either registered before Close closes the
// registered set or closed by Serve itself, so Close returns, and no
// handler — parked in a read on a client that never sends — outlives it.
func TestCloseWhileDialing(t *testing.T) {
	for round := 0; round < 20; round++ {
		srv, err := netpq.NewServer(netpq.Options{
			NewQueue: func(spec, _ string, threads int) (pq.Queue, error) {
				return cpq.NewQueue(spec, cpq.Options{Threads: 4})
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		served := make(chan error, 1)
		go func() { served <- srv.Serve(ln) }()

		var (
			mu    sync.Mutex
			conns []net.Conn
			stop  atomic.Bool
			wg    sync.WaitGroup
		)
		for d := 0; d < 2; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !stop.Load() {
					nc, err := net.Dial("tcp", ln.Addr().String())
					if err != nil {
						return // the listener is closed
					}
					mu.Lock()
					conns = append(conns, nc) // silent: never sends a byte
					mu.Unlock()
				}
			}()
		}
		time.Sleep(time.Duration(round%5) * time.Millisecond)
		closed := make(chan struct{})
		go func() {
			srv.Close()
			close(closed)
		}()
		select {
		case <-closed:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: Close did not return", round)
		}
		time.Sleep(10 * time.Millisecond) // a stranded handler would have started by now
		if st := srv.Stats(); st.ConnsActive != 0 {
			t.Fatalf("round %d: %d handlers outlived Close (%d conns opened)", round, st.ConnsActive, st.ConnsOpened)
		}
		stop.Store(true)
		wg.Wait()
		if err := <-served; err != nil {
			t.Fatalf("round %d: Serve: %v", round, err)
		}
		for _, nc := range conns {
			nc.Close()
		}
	}
}

// TestServeAfterClose pins the other order: a Serve that starts after
// Close returns at once and closes its listener, rather than accepting
// and dropping connections forever.
func TestServeAfterClose(t *testing.T) {
	srv, err := netpq.NewServer(netpq.Options{
		NewQueue: func(spec, _ string, threads int) (pq.Queue, error) {
			return cpq.NewQueue(spec, cpq.Options{Threads: 4})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve after Close did not return")
	}
	if nc, err := net.Dial("tcp", ln.Addr().String()); err == nil {
		nc.Close()
		t.Fatal("the listener still accepts after Serve returned")
	}
}

// TestConnectionPastPoolCap holds every handle of a served queue's pool
// (the default cap, 4·GOMAXPROCS, is 4 at GOMAXPROCS 1) and dials one more
// connection. Its Hello waits, without running the collector, until
// another connection closes; and Close returns while a Hello waits.
func TestConnectionPastPoolCap(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const capacity = 4
	srv, addr := newLoopbackServer(t, netpq.Options{})
	conns := make([]*netpq.Client, capacity)
	for i := range conns {
		c, err := netpq.Dial(addr, "globallock")
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		conns[i] = c
	}
	type dialed struct {
		c   *netpq.Client
		err error
	}
	dial := func() <-chan dialed {
		ch := make(chan dialed, 1)
		go func() {
			c, err := netpq.Dial(addr, "globallock")
			ch <- dialed{c, err}
		}()
		return ch
	}
	// helloRead waits until the server has read n Hello frames: the last
	// one's handler is then in (or past) its pool Acquire.
	helloRead := func(n uint64) {
		for deadline := time.Now().Add(10 * time.Second); srv.Stats().FramesIn < n; {
			if time.Now().After(deadline) {
				t.Fatalf("the server read %d frames, want %d", srv.Stats().FramesIn, n)
			}
			time.Sleep(time.Millisecond)
		}
	}

	waiting := dial()
	helloRead(capacity + 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	select {
	case r := <-waiting:
		t.Fatalf("Hello past the cap answered (err %v) while %d connections hold every handle", r.err, capacity)
	case <-time.After(time.Second):
	}
	runtime.ReadMemStats(&after)
	if n := after.NumGC - before.NumGC; n > 2 {
		t.Fatalf("%d GC cycles while one Hello waited 1s at the pool cap, want <= 2", n)
	}
	conns[0].Close()
	select {
	case r := <-waiting:
		if r.err != nil {
			t.Fatalf("Hello after a connection closed: %v", r.err)
		}
		defer r.c.Close()
	case <-time.After(10 * time.Second):
		t.Fatal("Hello still unanswered after a connection closed")
	}

	waiting = dial()
	helloRead(capacity + 2)
	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return while a Hello waited at the pool cap")
	}
	// Closing the other connections may free a handle for the waiter
	// before Close reaches its connection, so its Hello may or may not
	// have been answered; either way its dial has returned.
	if r := <-waiting; r.err == nil {
		r.c.Close()
	}
}

// acceptOnce accepts one connection, then fails every later Accept as a
// broken listener would.
type acceptOnce struct {
	net.Listener
	accepted atomic.Bool
}

func (l *acceptOnce) Accept() (net.Conn, error) {
	if l.accepted.Swap(true) {
		return nil, errors.New("accept failed")
	}
	return l.Listener.Accept()
}

// TestCloseQueuesAfterAcceptError pins the shutdown order when Serve
// returns an accept error: CloseQueues first closes the server, so no
// handler keeps serving a queue that is being closed.
func TestCloseQueuesAfterAcceptError(t *testing.T) {
	srv, err := netpq.NewServer(netpq.Options{
		NewQueue: func(spec, _ string, threads int) (pq.Queue, error) {
			return cpq.NewQueue(spec, cpq.Options{Threads: threads})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(&acceptOnce{Listener: ln}) }()
	c, err := netpq.Dial(ln.Addr().String(), "globallock")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	select {
	case err := <-served:
		if err == nil {
			t.Fatal("Serve returned nil after a failed Accept")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after a failed Accept")
	}
	if err := srv.CloseQueues(); err != nil {
		t.Fatalf("CloseQueues: %v", err)
	}
	if err := c.Insert(1, 1); err == nil {
		t.Fatal("a request after CloseQueues was served: its handler outlived the queue")
	}
}
