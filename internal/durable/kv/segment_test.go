package kv

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

// frame builds one length-prefixed record around body, matching the WAL
// envelope scanRecordTail walks (u32 body length, body, u32 CRC).
func frame(body []byte) []byte {
	out := make([]byte, 4+len(body)+4)
	binary.BigEndian.PutUint32(out, uint32(len(body)))
	copy(out[4:], body)
	binary.BigEndian.PutUint32(out[4+len(body):], crc32.ChecksumIEEE(body))
	return out
}

// TestSegmentTornTail simulates the crash shapes a preallocated segment can
// be left in and checks the scan's verdicts: a zero frontier bounds the
// tail, and a torn final record — intact earlier bytes, zeroed or
// mangled later ones — is discarded whole without disturbing the synced
// prefix. It also pins that recovery is idempotent: the zeroing pass
// leaves a segment a second reopen scans to the same tail.
func TestSegmentTornTail(t *testing.T) {
	good, torn := frame([]byte("committed")), frame([]byte("torn-record"))
	cases := []struct {
		name string
		mut  func(seg []byte) // applied at the torn record's start offset
	}{
		{"zeroed-suffix", func(seg []byte) {
			// Prefix persistence: length landed, body tail reverted to zero.
			copy(seg, torn[:6])
		}},
		{"bad-crc", func(seg []byte) {
			copy(seg, torn)
			seg[len(torn)-1] ^= 0xff
		}},
		{"length-overruns-segment", func(seg []byte) {
			binary.BigEndian.PutUint32(seg, uint32(len(seg))) // claims past the end
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenMmap(dir, 1<<12)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append("wal/1", good); err != nil {
				t.Fatal(err)
			}
			if err := s.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			// Mangle the bytes after the synced prefix directly in the file,
			// as a crash mid-append would leave them.
			path := s.segPath("wal/1")
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			tc.mut(buf[len(good):])
			if err := os.WriteFile(path, buf, 0o644); err != nil {
				t.Fatal(err)
			}

			for round := 1; round <= 2; round++ {
				r, err := OpenMmap(dir, 1<<12)
				if err != nil {
					t.Fatalf("round %d reopen: %v", round, err)
				}
				v, ok, err := r.Get("wal/1")
				if err != nil || !ok || !bytes.Equal(v, good) {
					t.Fatalf("round %d: tail = %d bytes ok=%v err=%v, want the %d-byte synced prefix",
						round, len(v), ok, err, len(good))
				}
				if err := r.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestSegmentGrow forces appends past the preallocated size and checks
// growth preserves every byte, including across a reopen. The records
// grow to more than the reopen scan's window, so the scan also re-reads
// records a window cuts and grows its buffer for one that outsizes it.
func TestSegmentGrow(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenMmap(dir, 1<<12) // 4 KiB; the records below overflow it
	if err != nil {
		t.Fatal(err)
	}
	var want []byte
	for i := 0; i < 20; i++ { // ~1 MB through a 4 KiB initial segment
		body := bytes.Repeat([]byte{byte(i + 1)}, 1000+i*5000)
		rec := frame(body)
		if err := s.Append("wal/1", rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec...)
	}
	if v, _, _ := s.Get("wal/1"); !bytes.Equal(v, want) {
		t.Fatalf("after growth: %d bytes, want %d", len(v), len(want))
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenMmap(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if v, _, _ := r.Get("wal/1"); !bytes.Equal(v, want) {
		t.Fatalf("reopen after growth: %d bytes, want %d", len(v), len(want))
	}
}

// TestSegmentConcurrentReads hammers Get/List against a writer appending
// through segment growth; under -race this is the memory-model check for
// the atomically-published offset.
func TestSegmentConcurrentReads(t *testing.T) {
	s, err := OpenMmap(t.TempDir(), 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const records = 400
	rec := frame(bytes.Repeat([]byte("x"), 100))
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v, _, err := s.Get("wal/1")
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if len(v)%len(rec) != 0 {
					t.Errorf("read a partial record: %d bytes", len(v))
					return
				}
				if _, err := s.List("wal/"); err != nil {
					t.Errorf("List: %v", err)
					return
				}
			}
		}()
	}
	for i := 0; i < records; i++ {
		if err := s.Append("wal/1", rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if v, _, _ := s.Get("wal/1"); len(v) != records*len(rec) {
		t.Fatalf("final length %d, want %d", len(v), records*len(rec))
	}
}

// TestSegmentDelete pins that Update deletes close and remove the
// preallocated file, and the key is gone after reopen.
func TestSegmentDelete(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenMmap(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Append("wal/1", frame([]byte("a"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx Tx) error { tx.Delete("wal/1"); return nil }); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("wal/1"); ok {
		t.Fatal("deleted segment still readable")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := OpenMmap(dir, 1<<12)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if keys, _ := r.List(""); len(keys) != 0 {
		t.Fatalf("reopen after delete lists %v", keys)
	}
}

// TestSegmentDeleteRace races Get and Append against an Update that
// deletes the same segment, through the grow path. Each must see whole
// records, not-found, or a clean error — never a partial record or a
// panic. Under -race this pins that a delete closing the descriptor is
// safe against in-flight preads and pwrites.
func TestSegmentDeleteRace(t *testing.T) {
	s, err := OpenMmap(t.TempDir(), 1<<10) // small: appends below grow it
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rec := frame(bytes.Repeat([]byte("r"), 100))
	del := func() error {
		return s.Update(func(tx Tx) error { tx.Delete("wal/1"); return nil })
	}
	for round := 0; round < 50; round++ {
		for i := 0; i < 4; i++ {
			if err := s.Append("wal/1", rec); err != nil {
				t.Fatal(err)
			}
		}
		var reads, appends atomic.Int64
		var stop atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				reads.Add(1)
				v, ok, err := s.Get("wal/1")
				if err != nil {
					t.Errorf("Get: %v", err)
					return
				}
				if !ok {
					continue
				}
				for off := 0; off < len(v); off += len(rec) {
					if off+len(rec) > len(v) || !bytes.Equal(v[off:off+len(rec)], rec) {
						t.Errorf("Get returned a partial or mangled record at %d of %d bytes", off, len(v))
						return
					}
				}
			}
		}()
		go func() {
			defer wg.Done()
			// Bounded, so the segment the reader copies stays small; the
			// delete's close lands within the first few appends.
			for i := 0; i < 256 && !stop.Load(); i++ {
				appends.Add(1)
				if err := s.Append("wal/1", rec); err != nil && !strings.Contains(err.Error(), "deleted segment") {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}()
		for reads.Load() == 0 || appends.Load() == 0 {
			runtime.Gosched()
		}
		err := del()
		stop.Store(true)
		wg.Wait()
		if err != nil {
			t.Fatal(err)
		}
		if err := del(); err != nil { // the appender may have recreated it
			t.Fatal(err)
		}
	}
}
