package cpq_test

import (
	"errors"
	"testing"

	"cpq"
)

// TestNewQueueDurable drives the one-constructor durable path: build with
// Options.Durable, operate, Close, rebuild over the same directory, and
// find the live set intact.
func TestNewQueueDurable(t *testing.T) {
	dir := t.TempDir()
	q, err := cpq.NewQueue("klsm128", cpq.Options{
		Threads: 2,
		Durable: &cpq.DurableOptions{Dir: dir, SnapshotEvery: 50},
	})
	if err != nil {
		t.Fatalf("NewQueue durable: %v", err)
	}
	if q.Name() != "dur:klsm128" {
		t.Fatalf("Name = %q, want dur:klsm128", q.Name())
	}
	h := q.Handle()
	for i := uint64(0); i < 120; i++ {
		h.Insert(i, i*2)
	}
	for i := 0; i < 20; i++ {
		if _, _, ok := h.DeleteMin(); !ok {
			t.Fatal("queue empty early")
		}
	}
	if err := cpq.Close(q); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := cpq.NewQueue("klsm128", cpq.Options{
		Durable: &cpq.DurableOptions{Dir: dir},
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer cpq.Close(r)
	rh := r.Handle()
	count := 0
	for {
		if _, _, ok := rh.DeleteMin(); !ok {
			break
		}
		count++
	}
	if count != 100 {
		t.Fatalf("recovered %d items, want 100", count)
	}
}

// TestNewQueueDurableErrors pins the typed error for durable-incompatible
// requests.
func TestNewQueueDurableErrors(t *testing.T) {
	cases := []struct {
		name string
		opts cpq.DurableOptions
	}{
		{"empty dir", cpq.DurableOptions{}},
		{"negative snapshot", cpq.DurableOptions{Dir: "x", SnapshotEvery: -1}},
		{"negative segment", cpq.DurableOptions{Dir: "x", SegmentBytes: -1}},
	}
	for _, tc := range cases {
		opts := tc.opts
		_, err := cpq.NewQueue("linden", cpq.Options{Durable: &opts})
		var de *cpq.DurableError
		if !errors.As(err, &de) {
			t.Errorf("%s: err = %v, want *DurableError", tc.name, err)
			continue
		}
		if de.Name != "linden" || de.Reason == "" {
			t.Errorf("%s: incomplete DurableError: %+v", tc.name, de)
		}
	}
	// An unknown queue stays an UnknownQueueError even with Durable set.
	_, err := cpq.NewQueue("nope", cpq.Options{Durable: &cpq.DurableOptions{Dir: "x"}})
	var ue *cpq.UnknownQueueError
	if !errors.As(err, &ue) {
		t.Fatalf("unknown queue with Durable: err = %v, want *UnknownQueueError", err)
	}
}

// TestCloseIsNilSafeEverywhere: cpq.Close must be a safe deferred default
// for every registry queue and for nil.
func TestCloseIsNilSafeEverywhere(t *testing.T) {
	if err := cpq.Close(nil); err != nil {
		t.Fatalf("Close(nil) = %v", err)
	}
	for _, name := range cpq.Names() {
		q, err := cpq.NewQueue(name, cpq.Options{Threads: 2})
		if err != nil {
			t.Fatalf("NewQueue(%s): %v", name, err)
		}
		q.Handle().Insert(1, 1)
		if err := cpq.Close(q); err != nil {
			t.Fatalf("Close(%s) = %v", name, err)
		}
	}
	// Pools implement Closer: Close drains the free lists and closes the
	// wrapped queue.
	q, err := cpq.NewQueue("multiq-s4-b8", cpq.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := cpq.NewPool(q, cpq.PoolOptions{})
	// Warm the pool with two handles, so Close finds two on its free
	// list.
	h1, h2 := p.Acquire(), p.Acquire()
	p.Release(h1)
	p.Release(h2)
	h := p.Acquire()
	h.Insert(7, 7)
	p.Release(h)
	if err := cpq.Close(p); err != nil {
		t.Fatalf("Close(pool) = %v", err)
	}
	if err := cpq.Close(p); err != nil {
		t.Fatalf("second Close(pool) = %v", err)
	}
}
