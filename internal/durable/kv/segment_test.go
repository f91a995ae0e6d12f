package kv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
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

// creations names the two ways a new key's segment is made: moved into
// place from the zeroed spare, or created and reserved by prealloc.
var creations = []string{"spare", "fallback"}

// spareReady waits for s's spare goroutine and reports whether it left a
// spare ready.
func spareReady(s *Disk) bool {
	s.zeroed.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.spare != nil
}

// readyCreation makes s's next new key take the creation path how. A
// fresh store holds no spare, so "fallback" needs nothing; for "spare" an
// append carries a key "warm" past half a segment, which starts one, and
// readyCreation waits for it.
func readyCreation(t *testing.T, s *Disk, how string) {
	t.Helper()
	if how == "fallback" {
		if spareReady(s) {
			t.Fatal("a fresh store holds a spare")
		}
		return
	}
	if err := s.Append("warm", frame(make([]byte, s.segBytes/2))); err != nil {
		t.Fatal(err)
	}
	if !spareReady(s) {
		t.Fatal("an append past a segment's half left no spare")
	}
}

// zeroPast fails t unless the file at path holds at least size bytes and
// every byte from tail on is zero, as the reopen scan's frontier needs.
func zeroPast(t *testing.T, path string, tail, size int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) < size {
		t.Fatalf("segment holds %d bytes, want at least %d", len(buf), size)
	}
	if i := bytes.IndexFunc(buf[tail:], func(r rune) bool { return r != 0 }); i >= 0 {
		t.Fatalf("nonzero byte at %d, past the %d-byte tail", tail+i, tail)
	}
}

// TestSegmentTornTail simulates the crash shapes a segment can be left in,
// made from the spare or by the fallback, and checks the scan's
// verdicts: a zero frontier bounds the tail, and a torn final record —
// intact earlier bytes, zeroed or mangled later ones — is discarded
// whole without disturbing the synced prefix. It also pins that recovery
// is idempotent: the zeroing pass leaves a segment a second reopen scans
// to the same tail, every byte past it zero.
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
			for _, how := range creations {
				t.Run(how, func(t *testing.T) {
					const segBytes = 1 << 12
					dir := t.TempDir()
					s, err := OpenMmap(dir, segBytes)
					if err != nil {
						t.Fatal(err)
					}
					readyCreation(t, s, how)
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
						r, err := OpenMmap(dir, segBytes)
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
						zeroPast(t, path, len(good), segBytes)
					}
				})
			}
		})
	}
}

// TestSegmentGrow forces appends past the segment's size, on a segment
// made from the spare and on one made by the fallback, and checks growth
// preserves every byte, including across a reopen, and leaves zeros past
// the tail. The records grow to more than the reopen scan's window, so
// the scan also re-reads records a window cuts and grows its buffer for
// one that outsizes it.
func TestSegmentGrow(t *testing.T) {
	for _, how := range creations {
		t.Run(how, func(t *testing.T) {
			const segBytes = 1 << 12 // 4 KiB; the records below overflow it
			dir := t.TempDir()
			s, err := OpenMmap(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			readyCreation(t, s, how)
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
			r, err := OpenMmap(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			defer r.Close()
			if v, _, _ := r.Get("wal/1"); !bytes.Equal(v, want) {
				t.Fatalf("reopen after growth: %d bytes, want %d", len(v), len(want))
			}
			zeroPast(t, r.segPath("wal/1"), len(want), len(want))
		})
	}
}

// TestStaleSpare plants a spare as a crash can leave one — mid-zeroing at
// any length, or holding bytes that frame as records — beside a segment,
// and checks that reopening removes it: the store lists and loads only
// the segment, the next spare it writes is all zeros, and Close leaves
// the directory holding the segment alone.
func TestStaleSpare(t *testing.T) {
	const segBytes = 1 << 12
	for name, stale := range map[string][]byte{
		"empty":       nil,
		"short-zeros": make([]byte, 100),
		"records":     append(frame([]byte("not-a-key")), frame([]byte("nor-this"))...),
		"full-junk":   bytes.Repeat([]byte{0xa5}, 2*segBytes),
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenMmap(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			rec := frame([]byte("kept"))
			if err := s.Append("wal/1", rec); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			spare := filepath.Join(dir, spareName)
			if err := os.WriteFile(spare, stale, 0o644); err != nil {
				t.Fatal(err)
			}

			r, err := OpenMmap(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(spare); !os.IsNotExist(err) {
				t.Fatalf("reopen left the stale spare (stat err %v)", err)
			}
			if keys, err := r.List(""); err != nil || !reflect.DeepEqual(keys, []string{"wal/1"}) {
				t.Fatalf("List = %v err=%v, want [wal/1]", keys, err)
			}
			if len(r.segs) != 1 || r.segs["wal/1"] == nil {
				t.Fatalf("reopen loaded segments %v, want wal/1 alone", r.segs)
			}
			if v, _, _ := r.Get("wal/1"); !bytes.Equal(v, rec) {
				t.Fatalf("segment reads %d bytes, want %d", len(v), len(rec))
			}
			if err := r.Append("wal/1", frame(make([]byte, segBytes/2))); err != nil {
				t.Fatal(err)
			}
			if !spareReady(r) {
				t.Fatal("no spare after an append past a segment's half")
			}
			if buf, err := os.ReadFile(spare); err != nil || !bytes.Equal(buf, make([]byte, segBytes)) {
				t.Fatalf("new spare holds %d bytes (err %v), want %d zeros", len(buf), err, segBytes)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			ents, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(ents) != 1 || ents[0].Name() != filepath.Base(r.segPath("wal/1")) {
				t.Fatalf("after Close the directory holds %v, want the segment alone", ents)
			}
		})
	}
}

// TestSpareStartsAtHalf pins when the store writes a spare: when an
// append carries a segment past half its size, never at open and never at
// the creation that takes one. A segment cut short before its half
// starts none, so the next new key takes the fallback.
func TestSpareStartsAtHalf(t *testing.T) {
	const segBytes = 1 << 12
	s, err := OpenMmap(t.TempDir(), segBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	idle := func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.spare == nil && !s.zeroing
	}
	if !idle() {
		t.Fatal("opening the store started a spare")
	}
	rec := frame(make([]byte, segBytes/4-8)) // a quarter segment
	if err := s.Append("wal/1", rec); err != nil {
		t.Fatal(err)
	}
	if !idle() {
		t.Fatal("an append short of a segment's half started a spare")
	}
	if err := s.Append("wal/2", rec); err != nil { // wal/1 cut short
		t.Fatal(err)
	}
	if !idle() {
		t.Fatal("a key created with no spare ready started one")
	}
	if err := s.Append("wal/2", rec); err != nil { // the half: 2 of 4 quarters
		t.Fatal(err)
	}
	if !spareReady(s) {
		t.Fatal("an append to a segment's half started no spare")
	}
	if err := s.Append("wal/3", rec); err != nil {
		t.Fatal(err)
	}
	if !idle() {
		t.Fatal("taking the spare started the next one")
	}
}

// TestCloseRemovesSpare closes a store while its spare is being written,
// once it is ready, and while one is being written again after a new key
// took the first, and checks that Close waited for the spare goroutine
// and left no spare file.
func TestCloseRemovesSpare(t *testing.T) {
	const segBytes = 1 << 20
	half := frame(make([]byte, segBytes/2)) // carries a new segment past its half
	for _, when := range []string{"writing", "ready", "rewriting"} {
		t.Run(when, func(t *testing.T) {
			dir := t.TempDir()
			s, err := OpenMmap(dir, segBytes)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Append("wal/1", half); err != nil {
				t.Fatal(err)
			}
			switch when {
			case "ready":
				spareReady(s)
			case "rewriting":
				spareReady(s)
				if err := s.Append("wal/2", half); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s.mu.Lock()
			zeroing, spare := s.zeroing, s.spare
			s.mu.Unlock()
			if zeroing || spare != nil {
				t.Fatalf("after Close: zeroing=%v spare=%v", zeroing, spare)
			}
			if _, err := os.Stat(filepath.Join(dir, spareName)); !os.IsNotExist(err) {
				t.Fatalf("after Close the spare file is still there (stat err %v)", err)
			}
		})
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
// segment file, and the key is gone after reopen.
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

// BenchmarkAppendSync is the WAL's commit path on the disk store: per op,
// one group commit's bytes (a 4.8 KB record, about 35 of the benchmark's
// 8-pair records) appended and synced, rotating to a new key once a
// segment holds DefaultSegmentBytes, as the WAL does. It reports the
// Sync's share of an op, and the mean cost of the Append that creates
// each new key.
func BenchmarkAppendSync(b *testing.B) {
	s, err := OpenMmap(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := frame(make([]byte, 4800))
	var seg, size, creates int
	key := fmt.Sprintf("wal/%016x", seg)
	var syncNs, createNs time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		if err := s.Append(key, rec); err != nil {
			b.Fatal(err)
		}
		t1 := time.Now()
		if err := s.Sync(); err != nil {
			b.Fatal(err)
		}
		syncNs += time.Since(t1)
		if size == 0 {
			createNs += t1.Sub(t0)
			creates++
		}
		if size += len(rec); size >= DefaultSegmentBytes {
			seg++
			key, size = fmt.Sprintf("wal/%016x", seg), 0
		}
	}
	b.ReportMetric(float64(syncNs.Nanoseconds())/float64(b.N), "sync-ns/op")
	b.ReportMetric(float64(createNs.Nanoseconds())/float64(creates), "create-ns/key")
}
