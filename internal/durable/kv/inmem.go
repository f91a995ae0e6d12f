package kv

import (
	"errors"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Inmem is the in-memory Store: a mutex-guarded map. It exists for tests
// and for benchmarking the durable tier's bookkeeping without I/O — Sync
// is a counter, not a barrier. Data does not survive the process, so a
// "recovery" against an Inmem store only makes sense within one test.
type Inmem struct {
	mu     sync.Mutex
	m      map[string][]byte
	closed bool
	syncs  atomic.Uint64
}

// NewInmem returns an empty in-memory store.
func NewInmem() *Inmem { return &Inmem{m: make(map[string][]byte)} }

var errClosed = errors.New("kv: store is closed")

// Syncs reports how many Sync barriers were requested (test observability;
// the disk store's analogue is real fsyncs).
func (s *Inmem) Syncs() uint64 { return s.syncs.Load() }

// Get implements Store.
func (s *Inmem) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, errClosed
	}
	v, ok := s.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

// List implements Store.
func (s *Inmem) List(prefix string) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	return listKeys(s.m, prefix), nil
}

func listKeys(m map[string][]byte, prefix string) []string {
	var keys []string
	for k := range m {
		if strings.HasPrefix(k, prefix) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// inmemTx stages one Update batch. Reads see the pre-batch map.
type inmemTx struct {
	s    *Inmem
	sets map[string][]byte
	dels []string
}

func (tx *inmemTx) Get(key string) ([]byte, bool, error) {
	v, ok := tx.s.m[key]
	if !ok {
		return nil, false, nil
	}
	out := make([]byte, len(v))
	copy(out, v)
	return out, true, nil
}

func (tx *inmemTx) Set(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	tx.sets[key] = cp
}

func (tx *inmemTx) Delete(key string) { tx.dels = append(tx.dels, key) }

func (tx *inmemTx) List(prefix string) ([]string, error) {
	return listKeys(tx.s.m, prefix), nil
}

// Update implements Store. The whole batch applies under the store mutex:
// atomic in the strongest sense, exceeding the per-key contract.
func (s *Inmem) Update(fn func(Tx) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	tx := &inmemTx{s: s, sets: make(map[string][]byte)}
	if err := fn(tx); err != nil {
		return err
	}
	for k, v := range tx.sets {
		s.m[k] = v
	}
	for _, k := range tx.dels {
		delete(s.m, k)
	}
	return nil
}

// Append implements Store.
func (s *Inmem) Append(key string, data []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.m[key] = append(s.m[key], data...)
	return nil
}

// Sync implements Store (memory is "durable" the moment it is written).
func (s *Inmem) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	s.syncs.Add(1)
	return nil
}

// Close implements Store.
func (s *Inmem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
