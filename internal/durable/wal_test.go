package durable

import (
	"errors"
	"slices"
	"testing"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/telemetry"
)

func TestRecordRoundTrip(t *testing.T) {
	batches := [][]pq.KV{
		{{Key: 1, Value: 10}},
		{{Key: 2, Value: 20}, {Key: 3, Value: 30}, {Key: 0, Value: 0}},
		{}, // empty batch is legal on the wire
		{{Key: ^uint64(0), Value: ^uint64(0)}},
	}
	kinds := []byte{recInsert, recDelete, recInsert, recDelete}
	var buf []byte
	for i, b := range batches {
		buf = appendRecord(buf, kinds[i], b)
	}
	var gotKinds []byte
	var got [][]pq.KV
	err := decodeRecords(buf, func(kind byte, kvs []pq.KV) error {
		cp := make([]pq.KV, len(kvs))
		copy(cp, kvs)
		gotKinds = append(gotKinds, kind)
		got = append(got, cp)
		return nil
	})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(batches) {
		t.Fatalf("decoded %d records, want %d", len(got), len(batches))
	}
	for i := range batches {
		if gotKinds[i] != kinds[i] {
			t.Errorf("record %d kind = %d, want %d", i, gotKinds[i], kinds[i])
		}
		if len(got[i]) != len(batches[i]) {
			t.Fatalf("record %d has %d pairs, want %d", i, len(got[i]), len(batches[i]))
		}
		for j := range batches[i] {
			if got[i][j] != batches[i][j] {
				t.Errorf("record %d pair %d = %+v, want %+v", i, j, got[i][j], batches[i][j])
			}
		}
	}
}

func TestDecodeTornAndCorrupt(t *testing.T) {
	var buf []byte
	buf = appendRecord(buf, recInsert, []pq.KV{{Key: 7, Value: 70}, {Key: 8, Value: 80}})
	buf = appendRecord(buf, recDelete, []pq.KV{{Key: 7, Value: 70}})
	nop := func(byte, []pq.KV) error { return nil }

	// Every strict prefix that cuts a record must read as torn, and a torn
	// decode must deliver only the records before the tear.
	for cut := 1; cut < len(buf); cut++ {
		whole := 0
		err := decodeRecords(buf[:cut], func(byte, []pq.KV) error { whole++; return nil })
		if rec1 := 4 + 3 + 2*16 + 4; cut == rec1 {
			continue // exact record boundary: a clean (shorter) log
		}
		if err != ErrTorn {
			t.Fatalf("cut at %d: err = %v, want ErrTorn", cut, err)
		}
	}

	// A flipped bit anywhere must never decode cleanly to the original.
	for i := 0; i < len(buf)*8; i++ {
		mut := make([]byte, len(buf))
		copy(mut, buf)
		mut[i/8] ^= 1 << (i % 8)
		if err := decodeRecords(mut, nop); err == nil {
			// A flip may still parse if it produced a structurally valid
			// log — but then the content must differ, which for a CRC-32
			// per record cannot happen for single-bit flips inside a
			// record. Reaching here means the checksum failed to do its
			// one job.
			t.Fatalf("single-bit flip at bit %d decoded without error", i)
		}
	}
}

// FuzzWALDecode throws arbitrary bytes at the segment decoder: it must
// never panic and never accept a record whose checksum does not match.
func FuzzWALDecode(f *testing.F) {
	var seed []byte
	seed = appendRecord(seed, recInsert, []pq.KV{{Key: 1, Value: 2}, {Key: 3, Value: 4}})
	seed = appendRecord(seed, recDelete, []pq.KV{{Key: 1, Value: 2}})
	f.Add(seed)
	// Snapshot-era kinds: a begin marker mid-log and a partial-snapshot
	// chunk record as it appears in part/ keys.
	var marked []byte
	marked = appendRecord(marked, recInsert, []pq.KV{{Key: 5, Value: 6}})
	marked = appendRecord(marked, recSnapBegin, []pq.KV{{Key: 3, Value: 17}})
	marked = appendRecord(marked, recDelete, []pq.KV{{Key: 5, Value: 6}})
	f.Add(marked)
	var chunk []byte
	chunk = appendRecord(chunk, recSnapChunk, []pq.KV{{Key: 9, Value: 1}, {Key: 10, Value: 2}})
	f.Add(chunk)
	f.Add(seed[:len(seed)-3])       // torn tail
	f.Add([]byte{})                 // empty segment
	f.Add([]byte{0xff, 0xff, 0xff}) // short garbage
	mut := append([]byte(nil), seed...)
	mut[7] ^= 0x40 // bit flip inside the first record body
	f.Add(mut)

	f.Fuzz(func(t *testing.T, data []byte) {
		var redecoded []byte
		err := decodeRecords(data, func(kind byte, kvs []pq.KV) error {
			redecoded = appendRecord(redecoded, kind, kvs)
			return nil
		})
		if err != nil {
			return // rejected: torn or corrupt, both fine for arbitrary bytes
		}
		// Accepted without error: the log must be exactly the canonical
		// encoding of what was decoded — no slack bytes, no reinterpreted
		// fields.
		if len(redecoded) != len(data) {
			t.Fatalf("decoded cleanly but re-encodes to %d bytes, input was %d", len(redecoded), len(data))
		}
		for i := range data {
			if data[i] != redecoded[i] {
				t.Fatalf("decoded cleanly but re-encoding differs at byte %d", i)
			}
		}
	})
}

// TestAppendPathAllocs gates the no-fsync-pending append path at 0
// allocs/op: encoding a record into the pending buffer reuses the same
// two recycled buffers forever once they reach steady size.
func TestAppendPathAllocs(t *testing.T) {
	if telemetry.Enabled {
		t.Skip("telemetry build flag changes the path under test")
	}
	w := newWAL(kv.NewInmem(), 0, 1<<20, telemetry.NewShard())
	kvs := []pq.KV{{Key: 1, Value: 2}, {Key: 3, Value: 4}}
	// Warm the buffer to steady-state capacity.
	for i := 0; i < 64; i++ {
		w.append(recInsert, kvs)
	}
	w.mu.Lock()
	w.pending = w.pending[:0]
	w.synced = w.appended
	w.mu.Unlock()

	allocs := testing.AllocsPerRun(1000, func() {
		w.append(recInsert, kvs)
		// Play the commit leader's buffer recycling without the I/O, so
		// the buffer cannot grow without bound across runs.
		w.mu.Lock()
		w.pending = w.pending[:0]
		w.synced = w.appended
		w.mu.Unlock()
	})
	if allocs != 0 {
		t.Fatalf("append path allocates %v allocs/op, want 0", allocs)
	}
}

// flattenCounts expands a map-counted multiset into the sorted item
// slice recovery and the snapshot fold must produce: the reference the
// fold and replay tests compare against.
func flattenCounts(counts map[pq.KV]int) []pq.KV {
	items := make([]pq.KV, 0, len(counts))
	for it, c := range counts {
		for j := 0; j < c; j++ {
			items = append(items, it)
		}
	}
	slices.SortFunc(items, cmpKV)
	return items
}

// writeSnapshot commits items to store as snapshot idx, covering the WAL
// segments below nextSeg: a chunked part, then its manifest, laid out as
// takeSnapshot lays them out.
func writeSnapshot(t *testing.T, store kv.Store, idx, nextSeg uint64, items []pq.KV) {
	t.Helper()
	for off := 0; off < len(items); off += snapChunkItems {
		chunk := items[off:min(off+snapChunkItems, len(items))]
		if err := store.Append(partKey(idx), appendRecord(nil, recSnapChunk, chunk)); err != nil {
			t.Fatal(err)
		}
	}
	err := store.Update(func(tx kv.Tx) error {
		tx.Set(manifestKey(idx), encodeManifest(nextSeg, uint64(len(items))))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLiveSetFold checks the snapshot fold's in-place merge, and the
// recovery replay's merge of a WAL tail into a snapshot base, against a
// map-counted multiset over random insert/delete logs with duplicates.
// A delete matching nothing is corruption that leaves the folded set
// unchanged, and a delete logged before its insert is corruption to
// recovery.
func TestLiveSetFold(t *testing.T) {
	r := rng.New(7)
	item := func() pq.KV { k := r.Uint64() % 64; return pq.KV{Key: k, Value: k % 3} }
	// record logs one random insert or delete batch; a delete takes up
	// to 4 items of live, chosen at random among its copies.
	record := func(live map[pq.KV]int) []byte {
		kvs := make([]pq.KV, 1+r.Uint64()%5)
		if r.Uint64()%2 == 0 && len(live) > 0 {
			kvs = kvs[:min(len(kvs), 4)]
			for i := range kvs {
				all := flattenCounts(live)
				if len(all) == 0 {
					kvs = kvs[:i]
					break
				}
				kvs[i] = all[r.Uint64()%uint64(len(all))]
				if live[kvs[i]]--; live[kvs[i]] == 0 {
					delete(live, kvs[i])
				}
			}
			return appendRecord(nil, recDelete, kvs)
		}
		for i := range kvs {
			kvs[i] = item()
			live[kvs[i]]++
		}
		return appendRecord(nil, recInsert, kvs)
	}

	var ls liveSet
	live := map[pq.KV]int{}
	for seg := uint64(0); seg < 40; seg++ {
		store := kv.NewInmem()
		var buf []byte
		for rec := 0; rec < 1+int(r.Uint64()%6); rec++ {
			buf = append(buf, record(live)...)
		}
		if err := store.Append(segKey(seg), buf); err != nil {
			t.Fatal(err)
		}
		if err := ls.fold(store, seg, seg+1); err != nil {
			t.Fatalf("segment %d: %v", seg, err)
		}
		if want := flattenCounts(live); !slices.Equal(ls.items, want) {
			t.Fatalf("segment %d: fold holds %v, want %v", seg, ls.items, want)
		}
	}

	// An unmatched delete, and a torn record: every segment a fold reads
	// was sealed whole by this process.
	before := slices.Clone(ls.items)
	ins := appendRecord(nil, recInsert, []pq.KV{{Key: 1, Value: 1}})
	for name, seg := range map[string][]byte{
		"unmatched delete": appendRecord(nil, recDelete, []pq.KV{{Key: 1 << 40, Value: 0}}),
		"torn record":      append(slices.Clone(ins), ins[:len(ins)-1]...),
	} {
		store := kv.NewInmem()
		if err := store.Append(segKey(0), seg); err != nil {
			t.Fatal(err)
		}
		if err := ls.fold(store, 0, 1); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s folded with err %v", name, err)
		}
		if !slices.Equal(ls.items, before) {
			t.Fatalf("a failed fold (%s) changed the set", name)
		}
	}

	// Recovery: a random sorted base under a snapshot, then a random
	// multi-segment tail that deletes base items and its own earlier
	// inserts, sometimes ending in a torn record.
	for trial := 0; trial < 60; trial++ {
		store := kv.NewInmem()
		live := map[pq.KV]int{}
		base := make([]pq.KV, r.Uint64()%40)
		for i := range base {
			base[i] = item()
			live[base[i]]++
		}
		slices.SortFunc(base, cmpKV)
		first := 1 + r.Uint64()%3
		writeSnapshot(t, store, 0, first, base)
		// A segment the snapshot covers, left by a crash before its
		// truncation: replay must not read it.
		if err := store.Append(segKey(first-1), appendRecord(nil, recDelete, []pq.KV{{Key: 1 << 41}})); err != nil {
			t.Fatal(err)
		}
		last := first + r.Uint64()%4
		for seg := first; seg <= last; seg++ {
			var buf []byte
			for rec := 0; rec < 1+int(r.Uint64()%6); rec++ {
				buf = append(buf, record(live)...)
			}
			if seg == last && trial%3 == 0 {
				buf = append(buf, appendRecord(nil, recInsert, []pq.KV{item()})[:20]...) // torn
			}
			if err := store.Append(segKey(seg), buf); err != nil {
				t.Fatal(err)
			}
		}
		st, err := replayStore(store)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if want := flattenCounts(live); !slices.Equal(st.items, want) {
			t.Fatalf("trial %d: replay holds %v, want %v", trial, st.items, want)
		}
		if st.nextSeg != last+1 {
			t.Fatalf("trial %d: nextSeg = %d, want %d", trial, st.nextSeg, last+1)
		}

		if trial%3 == 0 {
			continue // a later segment would make the tear corruption
		}
		// The same log plus a delete of a new pair logged before its
		// insert: the tail's multiset balances, its order does not.
		fresh := pq.KV{Key: 1 << 40, Value: uint64(trial)}
		late := append(appendRecord(nil, recDelete, []pq.KV{fresh}), appendRecord(nil, recInsert, []pq.KV{fresh})...)
		if err := store.Append(segKey(last+1), late); err != nil {
			t.Fatal(err)
		}
		if _, err := replayStore(store); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("trial %d: a delete before its insert replayed with err %v", trial, err)
		}
	}
}
