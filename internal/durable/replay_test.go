package durable

import (
	"bytes"
	"errors"
	"slices"
	"testing"

	"cpq/internal/durable/kv"
	"cpq/internal/pq"
)

// TestReplayRejectsCorruptStore pins recovery's verdict on each store
// shape DESIGN.md §8d names: every planted corruption is ErrCorrupt, and
// the two legal crash shapes recover the exact live set.
func TestReplayRejectsCorruptStore(t *testing.T) {
	a, b, c := pq.KV{Key: 1, Value: 10}, pq.KV{Key: 2, Value: 20}, pq.KV{Key: 3, Value: 30}
	ins := func(kvs ...pq.KV) []byte { return appendRecord(nil, recInsert, kvs) }
	del := func(kvs ...pq.KV) []byte { return appendRecord(nil, recDelete, kvs) }
	chunk := func(kvs ...pq.KV) []byte { return appendRecord(nil, recSnapChunk, kvs) }
	torn := func(rec []byte) []byte { return rec[:len(rec)-3] }
	cat := func(recs ...[]byte) []byte { return bytes.Join(recs, nil) }

	cases := []struct {
		name  string
		keys  map[string][]byte
		want  []pq.KV // the recovered set; nil means ErrCorrupt
		wantN uint64  // the recovered nextSeg, when want is set
	}{
		{name: "delete before its insert in one segment",
			keys: map[string][]byte{segKey(0): cat(ins(a), del(b), ins(b))}},
		{name: "delete in segment 0, its insert in segment 1",
			keys: map[string][]byte{segKey(0): cat(ins(a), del(b)), segKey(1): ins(b)}},
		{name: "duplicate pair, second delete before second insert",
			keys: map[string][]byte{segKey(0): cat(ins(b), del(b), del(b), ins(b))}},
		{name: "delete with no insert",
			keys: map[string][]byte{segKey(0): cat(ins(a), del(b))}},
		{name: "base item deleted twice by the tail",
			keys: map[string][]byte{
				manifestKey(0): encodeManifest(1, 2), partKey(0): chunk(a, b),
				segKey(1): cat(del(a), del(a)),
			}},
		{name: "torn segment that is not the newest",
			keys: map[string][]byte{segKey(0): cat(ins(a), torn(ins(b))), segKey(1): ins(c)}},
		{name: "snapshot chunk inside a WAL segment",
			keys: map[string][]byte{segKey(0): chunk(a)}},
		{name: "manifest with count > 0 and no part",
			keys: map[string][]byte{manifestKey(0): encodeManifest(0, 2)}},
		{name: "part count disagrees with its manifest",
			keys: map[string][]byte{manifestKey(0): encodeManifest(0, 3), partKey(0): chunk(a, b)}},
		{name: "torn part",
			keys: map[string][]byte{manifestKey(0): encodeManifest(0, 2), partKey(0): torn(chunk(a, b))}},

		{name: "torn final record of the newest segment",
			keys: map[string][]byte{segKey(0): ins(a), segKey(1): cat(ins(b), torn(ins(c)))},
			want: []pq.KV{a, b}, wantN: 2},
		{name: "tail deletes a base item",
			keys: map[string][]byte{
				manifestKey(0): encodeManifest(1, 2), partKey(0): chunk(a, b),
				segKey(1): cat(del(a), ins(c)),
			},
			want: []pq.KV{b, c}, wantN: 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store := kv.NewInmem()
			err := store.Update(func(tx kv.Tx) error {
				for k, v := range tc.keys {
					tx.Set(k, v)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			st, err := replayStore(store)
			if tc.want == nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("replay returned %v (err %v), want ErrCorrupt", st.items, err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(st.items, tc.want) || st.nextSeg != tc.wantN {
				t.Fatalf("replay holds %v up to segment %d, want %v up to %d",
					st.items, st.nextSeg, tc.want, tc.wantN)
			}
		})
	}
}
