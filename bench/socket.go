package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/rng"
	mix "cpq/internal/workload"
)

// served is a self-hosted netpq server and, on net-durable, its store.
type served struct {
	srv    *netpq.Server
	ln     net.Listener
	addr   string
	done   chan error // Serve's return value
	store  kv.Store
	dq     *durable.Queue
	closed bool
}

// startServer starts a server for w on an ephemeral loopback port. On
// net-durable the served queue recovers the store in storeDir, and the
// time that takes is reported in ph.
func startServer(w workloadSpec, cfg config, tr *tracer, storeDir string, ph *phase) (*served, error) {
	s := &served{done: make(chan error, 1)}
	newQueue := func(spec, _ string, handles int) (pq.Queue, error) {
		inner, err := cpq.NewQueue(spec, cpq.Options{Threads: handles})
		if err != nil {
			return nil, err
		}
		inner = cfg.queue(inner)
		if w.path != durableSocket {
			return tr.queue(inner, spanServerQueue), nil
		}
		t0 := time.Now()
		store, err := kv.OpenMmap(storeDir, segmentBytes)
		if err != nil {
			return nil, err
		}
		dq, err := durable.Wrap(tr.queue(inner, spanDurableInner), durable.Options{
			Store:         tr.store(store),
			SnapshotEvery: snapshotEvery,
			SegmentBytes:  segmentBytes,
		})
		if err != nil {
			store.Close()
			return nil, err
		}
		ph.recoverTime += time.Since(t0)
		s.store, s.dq = store, dq
		return tr.queue(dq, spanDurableCall), nil
	}
	srv, err := netpq.NewServer(netpq.Options{NewQueue: newQueue, DefaultQueue: w.queue})
	if err != nil {
		return nil, err
	}
	s.srv = srv
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.abandon()
		return nil, err
	}
	s.ln, s.addr = ln, ln.Addr().String()
	go func() { s.done <- srv.Serve(tr.listener(ln)) }()
	return s, nil
}

// close stops the server and waits for its goroutines. It neither closes
// the served queues nor the store, so a durable store keeps exactly the
// state the run left in it.
func (s *served) close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	err := s.srv.Close()
	if s.ln != nil {
		// Server.Close closes the listener only once Serve has started;
		// close it here too, so a Serve that starts late returns at once.
		s.ln.Close()
		if serr := <-s.done; err == nil {
			err = serr
		}
	}
	return err
}

// abandon drops a server and the queue it served without a graceful
// shutdown, as a crash would.
func (s *served) abandon() {
	s.close()
	if s.store != nil {
		s.store.Close()
		s.store = nil
	}
}

// waitIdle waits until the server has released every connection's handle,
// which flushes the handle's buffered items back into the queue.
func (s *served) waitIdle() error {
	for deadline := time.Now().Add(10 * time.Second); s.srv.Stats().ConnsActive > 0; {
		if time.Now().After(deadline) {
			return errors.New("server kept connections open after the clients closed")
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// runSocket sets up and measures one instance of the socket paths:
// clients in this process talk to a server in this process over loopback.
func runSocket(ph *phase, w workloadSpec, cfg config, seed uint64, tr *tracer, d time.Duration) error {
	storeDir, base := "", ledger{}
	if w.path == durableSocket {
		dir, err := os.MkdirTemp(cfg.dir, "store-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		storeDir = dir
		if err := copyFiles(storeDir, cfg.fixture.dir); err != nil {
			return fmt.Errorf("copying the crashed store: %w", err)
		}
		base = cfg.fixture.items
		ph.recovered += base.n
	}
	var s *served
	err := ph.timeSetup(func() error {
		var err error
		if s, err = startServer(w, cfg, tr, storeDir, ph); err != nil {
			return err
		}
		if w.path == socket {
			if base, err = socketPrefill(s.addr, w.keys, cfg.sizes.netPrefill, seed); err != nil {
				return fmt.Errorf("prefill: %w", err)
			}
		}
		return nil
	})
	if s != nil {
		defer s.abandon()
	}
	if err != nil {
		return err
	}

	ls := newLoaders(w, seed)
	every := uint64(sampleEvery)
	if w.path == durableSocket {
		every = 1 // frames are few and slow; time each one
	}
	srv0, wal0 := s.srv.Stats(), walStats(s.dq)
	ph.measure(d, ls, tr, func(l *loader, stop *atomic.Bool) {
		if err := l.callServer(s.addr, tr, every, stop); err != nil {
			l.err = err
		}
	}, s.waitIdle)
	ph.addServer(s.srv.Stats(), srv0)
	ph.addWAL(walStats(s.dq), wal0)
	ins, del := totals(ls)

	var drained ledger
	if w.path == socket {
		if drained, err = socketDrain(s.addr); err != nil {
			ph.fail(0, "drain: %v", err)
		}
	}
	// Shut down gracefully. Closing the queues also stops their handle
	// pools, which would otherwise keep each instance's queue reachable
	// for the rest of the run; on net-durable it takes the final snapshot.
	if err := s.close(); err != nil {
		ph.fail(0, "server close: %v", err)
	}
	if err := s.srv.CloseQueues(); err != nil {
		ph.fail(0, "close queues: %v", err)
	}
	if w.path == socket {
		ph.conserve("conservation (prefill + inserted = deleted + drained)", base.plus(ins), del.plus(drained))
		return nil
	}

	// net-durable: replay the store the way the next process would recover it.
	if err := s.dq.Err(); err != nil {
		ph.fail(0, "durable log: %v", err)
	}
	err = s.store.Close()
	s.store = nil
	if err != nil {
		ph.fail(0, "store close: %v", err)
	}
	replayed, err := replay(storeDir)
	if err != nil {
		ph.fail(0, "replay: %v", err)
	}
	ph.conserve("durable replay (recovered + inserted = deleted + replayed)", base.plus(ins), del.plus(replayed))
	return nil
}

// socketPrefill inserts n items through one connection, in full frames.
func socketPrefill(addr string, dist keys.Distribution, n int, seed uint64) (ledger, error) {
	c, err := netpq.Dial(addr, "")
	if err != nil {
		return ledger{}, err
	}
	defer c.Close()
	gen := keys.NewGenerator(dist, rng.New(seed^0x9e3779b97f4a7c15))
	kvs := make([]pq.KV, netpq.MaxBatch)
	var l ledger
	for req := uint64(0); n > 0; req++ {
		k := min(len(kvs), n)
		fillBatch(kvs[:k], gen, prefillConn, req)
		l.add(kvs[:k])
		if err := c.InsertN(kvs[:k]); err != nil {
			return l, err
		}
		n -= k
	}
	return l, nil
}

// socketDrain empties the served queue through a fresh connection.
func socketDrain(addr string) (ledger, error) {
	c, err := netpq.Dial(addr, "")
	if err != nil {
		return ledger{}, err
	}
	defer c.Close()
	buf := make([]pq.KV, netpq.MaxBatch)
	var l ledger
	for {
		got, err := c.DeleteMinN(buf, len(buf))
		if err != nil {
			return l, err
		}
		if got == 0 {
			return l, nil
		}
		l.add(buf[:got])
	}
}

// callServer is one round of a connection: it keeps a window of request
// frames in flight (fill to window, drain to half of it) until stop, then
// drains the window. Every every-th frame is timed from its Start* call
// to its decoded response, so time queued behind the window counts.
func (l *loader) callServer(addr string, tr *tracer, every uint64, stop *atomic.Bool) error {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	c, err := netpq.NewClient(tr.clientConn(nc), "")
	if err != nil {
		nc.Close()
		return err
	}
	defer c.Close()
	var (
		sentAt   [window]time.Time
		isInsert [window]bool
		done     = l.req // responses received; the window is empty between rounds
		moved    = l.moved.Load()
	)
	issue := func() error {
		req := l.req
		slot := req % window
		isInsert[slot] = l.policy.Next() == mix.Insert
		if isInsert[slot] {
			fillBatch(l.kvs, l.gen, l.conn, req)
			l.ins.add(l.kvs)
		}
		var t0 time.Time
		if req%every == 0 || tr.sampled(req) {
			t0 = time.Now()
		}
		sentAt[slot] = t0
		var err error
		if isInsert[slot] {
			_, err = c.StartInsertN(l.kvs)
		} else {
			_, err = c.StartDeleteMinN(batch)
		}
		tr.encoded(req, t0)
		l.req++
		l.attempted += batch
		return err
	}
	recv := func() error {
		slot := done % window
		var r0 time.Time
		if tr.sampled(done) {
			r0 = time.Now()
		}
		resp, err := c.Recv()
		if err != nil {
			return err
		}
		switch {
		case resp.Err != nil:
			l.failed += batch
		case isInsert[slot]:
			moved += batch
		default:
			l.del.add(resp.KVs)
			moved += uint64(len(resp.KVs))
		}
		if !sentAt[slot].IsZero() {
			t1 := time.Now()
			if done%every == 0 {
				op := opDelete
				if isInsert[slot] {
					op = opInsert
				}
				l.lat[op] = append(l.lat[op], nsSample(t1.Sub(sentAt[slot])))
			}
			tr.request(l.conn, done, sentAt[slot], r0, t1)
		}
		done++
		l.moved.Store(moved)
		return nil
	}
	for !stop.Load() {
		for l.req-done < window {
			if err := issue(); err != nil {
				return err
			}
		}
		for l.req-done > window/2 {
			if err := recv(); err != nil {
				return err
			}
		}
	}
	for done < l.req {
		if err := recv(); err != nil {
			return err
		}
	}
	return nil
}

// fixture is a crashed store in dir, holding items. It is built once per
// phase, and every instance of the phase recovers a copy of it.
type fixture struct {
	dir   string
	items ledger
}

// copyFiles copies the files of directory src, a closed store, into dst.
func copyFiles(dst, src string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// buildCrashedStore leaves dir as a crash would: sz.snapped items covered
// by a committed snapshot plus sz.tail items only the WAL holds, every
// record fsynced. It returns the ledger of the items the store holds.
func buildCrashedStore(queue, dir string, sz sizes, seed uint64) (ledger, error) {
	inner, err := cpq.NewQueue(queue, cpq.Options{Threads: 1})
	if err != nil {
		return ledger{}, err
	}
	store, err := kv.OpenMmap(dir, segmentBytes)
	if err != nil {
		return ledger{}, err
	}
	q, err := durable.Wrap(inner, durable.Options{Store: store, SegmentBytes: segmentBytes})
	if err != nil {
		store.Close()
		return ledger{}, err
	}
	h := q.Handle()
	gen := keys.NewGenerator(keys.Uniform32, rng.New(seed^0xd1b54a32d192ed03))
	kvs := make([]pq.KV, netpq.MaxBatch) // one group commit per chunk
	var l ledger
	var req uint64
	insert := func(n int) {
		for ; n > 0; req++ {
			k := min(len(kvs), n)
			fillBatch(kvs[:k], gen, fixtureConn, req)
			l.add(kvs[:k])
			pq.InsertN(h, kvs[:k])
			n -= k
		}
	}
	insert(sz.snapped)
	err = q.Snapshot()
	insert(sz.tail)
	// No q.Close: it would take a final snapshot and erase the WAL tail.
	err = errors.Join(err, q.Err(), store.Close())
	return l, err
}

// replay reads a closed store the way recovery does.
func replay(dir string) (ledger, error) {
	store, err := kv.OpenMmap(dir, segmentBytes)
	if err != nil {
		return ledger{}, err
	}
	items, err := durable.ReplayStore(store)
	var l ledger
	l.add(items)
	return l, errors.Join(err, store.Close())
}
