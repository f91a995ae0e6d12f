// The server over durable queues: a pipelined burst rides one group
// commit, no response leaves before the records it acknowledges are
// synced, and a failed commit closes the connection unanswered.
package netpq_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cpq"
	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/netpq"
	"cpq/internal/pq"
)

// syncGate wraps a store so a test can hold every Sync until it releases
// the gate, or make every Sync fail from some point on.
type syncGate struct {
	kv.Store
	hold    atomic.Bool
	entered chan struct{} // signalled when a Sync finds the gate held
	release chan struct{} // closed by open to let held Syncs through
	opened  sync.Once
	fail    atomic.Bool
}

func newSyncGate() *syncGate {
	return &syncGate{
		Store:   kv.NewInmem(),
		entered: make(chan struct{}, 1),
		release: make(chan struct{}),
	}
}

func (g *syncGate) open() { g.opened.Do(func() { close(g.release) }) }

var errSyncFailed = errors.New("injected sync failure")

func (g *syncGate) Sync() error {
	if g.hold.Load() {
		select {
		case g.entered <- struct{}{}:
		default:
		}
		<-g.release
	}
	if g.fail.Load() {
		return errSyncFailed
	}
	return g.Store.Sync()
}

// newDurableServer serves one durable multiq-s4-b8 queue over store on a
// loopback port and returns the server, its address and the queue. A
// syncGate store is opened when the test ends, before the server's
// teardown, so a failing test never leaves that teardown parked in a
// held Sync.
func newDurableServer(t *testing.T, store kv.Store, logf func(string, ...any)) (*netpq.Server, string, *durable.Queue) {
	t.Helper()
	if g, ok := store.(*syncGate); ok {
		defer t.Cleanup(g.open) // registered last, so it runs first
	}
	var dq *durable.Queue
	srv, addr := newLoopbackServer(t, netpq.Options{
		DefaultQueue: "multiq-s4-b8",
		Logf:         logf,
		NewQueue: func(spec, _ string, threads int) (pq.Queue, error) {
			inner, err := cpq.NewQueue(spec, cpq.Options{Threads: 4})
			if err != nil {
				return nil, err
			}
			dq, err = durable.Wrap(inner, durable.Options{Store: store})
			return dq, err
		},
	})
	return srv, addr, dq
}

// pipelineInserts sends n insert frames of 8 pairs in one write.
func pipelineInserts(t *testing.T, c *netpq.Client, n int) {
	t.Helper()
	kvs := make([]pq.KV, 8)
	for i := 0; i < n; i++ {
		for j := range kvs {
			kvs[j] = pq.KV{Key: uint64(i*8 + j), Value: uint64(i*8 + j)}
		}
		if _, err := c.StartInsertN(kvs); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestPipelinedBurstOneCommit pins the tentpole's amortization: 64
// insert frames pipelined on one connection are one burst, committed by
// one group commit, not 64 (the burst may arrive in two reads).
func TestPipelinedBurstOneCommit(t *testing.T) {
	const frames = 64
	_, addr, dq := newDurableServer(t, kv.NewInmem(), nil)
	c, err := netpq.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	before := dq.Stats()
	pipelineInserts(t, c, frames)
	for i := 0; i < frames; i++ {
		if r, err := c.Recv(); err != nil || r.Err != nil {
			t.Fatalf("response %d: %+v, %v", i, r, err)
		}
	}
	after := dq.Stats()
	if got := after.Records - before.Records; got != frames {
		t.Fatalf("logged %d records, want %d", got, frames)
	}
	if fsyncs := after.Fsyncs - before.Fsyncs; fsyncs > 2 {
		t.Fatalf("%d pipelined inserts cost %d fsyncs, want at most 2", frames, fsyncs)
	}
}

// TestNoResponseBeforeSync pins acknowledged-implies-durable on the
// socket path: while the store's Sync is held, the server has executed
// and logged the burst but must not let one response byte out.
func TestNoResponseBeforeSync(t *testing.T) {
	const frames = 16
	gate := newSyncGate()
	_, addr, _ := newDurableServer(t, gate, nil)
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	c, err := netpq.NewClient(nc, "")
	if err != nil {
		t.Fatal(err)
	}

	gate.hold.Store(true)
	pipelineInserts(t, c, frames)
	if _, err := c.StartDeleteMinN(8); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the server never tried to commit the burst")
	}
	// Read the socket directly: nothing may be there while Sync is held.
	nc.SetReadDeadline(time.Now().Add(200 * time.Millisecond))
	var b [1]byte
	if n, err := nc.Read(b[:]); n != 0 || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("read %d bytes (err %v) before the records were synced", n, err)
	}
	nc.SetReadDeadline(time.Time{})

	gate.hold.Store(false)
	gate.open()
	for i := 0; i < frames+1; i++ {
		r, err := c.Recv()
		if err != nil || r.Err != nil {
			t.Fatalf("response %d after release: %+v, %v", i, r, err)
		}
		if i == frames && len(r.KVs) != 8 {
			t.Fatalf("delete returned %d items, want 8", len(r.KVs))
		}
	}
}

// TestFailedCommitClosesUnanswered pins the store-failure path: once
// Sync fails, the burst whose commit failed gets no response — the
// connection closes instead — and the failure is logged once for it.
// A later connection to the poisoned queue fares the same.
func TestFailedCommitClosesUnanswered(t *testing.T) {
	gate := newSyncGate()
	var (
		mu    sync.Mutex
		lines []string
	)
	_, addr, dq := newDurableServer(t, gate, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	c, err := netpq.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	kvs := []pq.KV{{Key: 1, Value: 1}}
	for i := 0; i < 10; i++ { // healthy store: every insert answered
		if err := c.InsertN(kvs); err != nil {
			t.Fatal(err)
		}
	}

	gate.fail.Store(true)
	pipelineInserts(t, c, 8)
	if r, err := c.Recv(); err == nil {
		t.Fatalf("got %+v for an insert whose commit failed", r)
	}
	if dq.Err() == nil {
		t.Fatal("the log is not poisoned after a failed sync")
	}

	c2, err := netpq.Dial(addr, "")
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.InsertN(kvs); err == nil {
		t.Fatal("an insert into the poisoned queue was acknowledged")
	}

	// Each failed connection logs once; wait for the second handler.
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(lines) != 2 {
		t.Fatalf("logged %d lines for 2 failed connections: %q", len(lines), lines)
	}
	for _, l := range lines {
		if !strings.Contains(l, "commit failed") {
			t.Fatalf("log line %q does not name the failed commit", l)
		}
	}
}
