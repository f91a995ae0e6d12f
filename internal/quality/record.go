package quality

import (
	"sync"
	"sync/atomic"

	"cpq/internal/pq"
)

// Event is one logged item of a call: the call's invocation and response
// stamps, the item, and whether the call inserted or deleted it. A batch
// call logs one Event per item, all with the call's stamps.
type Event struct {
	Inv, Resp uint64 // clock stamps at invocation and at response
	ID        uint64 // unique item identity (issued at insert)
	Key       uint64
	Del       bool
}

// Recorder logs operations for Replay. It issues item identities, carried
// in the value word of every inserted item, and stamps each call at
// invocation and at response on one atomic clock. Each goroutine records
// through its own Log; Events merges the logs once those goroutines are
// done. The zero value is ready to use.
type Recorder struct {
	clock, ids atomic.Uint64
	mu         sync.Mutex
	logs       []*Log
}

// Log is one goroutine's share of a Recorder's log; it is not safe for
// concurrent use.
type Log struct {
	rec    *Recorder
	events []Event
}

// Log returns a new log with room for capacity events.
func (r *Recorder) Log(capacity int) *Log {
	l := &Log{rec: r, events: make([]Event, 0, capacity)}
	r.mu.Lock()
	r.logs = append(r.logs, l)
	r.mu.Unlock()
	return l
}

// Events returns every log's events, in no particular order. Call it only
// once the recording goroutines are done.
func (r *Recorder) Events() []Event {
	var all []Event
	for _, l := range r.logs {
		all = append(all, l.events...)
	}
	return all
}

// Insert inserts the keys of kvs through h in one call, overwriting each
// Value with a new item identity. One item goes through Insert, more
// through InsertN.
func (l *Log) Insert(h pq.Handle, kvs []pq.KV) {
	id := l.rec.ids.Add(uint64(len(kvs))) - uint64(len(kvs))
	for i := range kvs {
		id++
		kvs[i].Value = id
	}
	inv := l.rec.clock.Add(1)
	if len(kvs) == 1 {
		h.Insert(kvs[0].Key, kvs[0].Value)
	} else {
		pq.InsertN(h, kvs)
	}
	l.record(inv, kvs, false)
}

// DeleteMin deletes up to len(out) items through h in one call into out
// and returns how many it deleted. One item goes through DeleteMin, more
// through DeleteMinN.
func (l *Log) DeleteMin(h pq.Handle, out []pq.KV) int {
	inv := l.rec.clock.Add(1)
	got := 1
	if len(out) == 1 {
		var ok bool
		if out[0].Key, out[0].Value, ok = h.DeleteMin(); !ok {
			got = 0
		}
	} else {
		got = pq.DeleteMinN(h, out, len(out))
	}
	l.record(inv, out[:got], true)
	return got
}

// record logs a call's items under its invocation stamp and a response
// stamp taken now.
func (l *Log) record(inv uint64, kvs []pq.KV, del bool) {
	resp := l.rec.clock.Add(1)
	for _, kv := range kvs {
		l.events = append(l.events, Event{Inv: inv, Resp: resp, ID: kv.Value, Key: kv.Key, Del: del})
	}
}
