package kv

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// DefaultSegmentBytes is the size of a new appended key's segment when
// the store is opened with no explicit size.
const DefaultSegmentBytes = 1 << 20

// segSuffix marks a segment file on disk. escapeKey never emits '@', so
// the suffix cannot collide with any escaped key.
const segSuffix = "@seg"

// spareName is the file the store zeroes ahead of its next new key. No
// key or Update temp file can take the name (escapeKey never emits '@'),
// List skips ".tmp" names and the reopen scan loads only segSuffix ones,
// so a spare is never read as a key.
const spareName = "@spare.tmp"

// zeroBlock is the source of every spare's zeros; nothing writes it.
var zeroBlock [64 << 10]byte

// scanWindow is the read buffer the reopen scan walks a segment through;
// it grows only if a single record outsizes it.
const scanWindow = 64 << 10

// Disk is the on-disk Store: one flat directory, one file per key (key
// bytes outside [A-Za-z0-9._-] are %XX-escaped in the file name, so
// "wal/0001" and "part/0001" coexist in one directory).
//
// Appended keys live in segment files ("<escaped key>@seg") of at least
// segBytes, so an Append is a pwrite(2) into blocks the file already has
// plus an atomically-published write offset: the file never grows on the
// hot path. A background goroutine writes a spare segment: a file of
// segBytes zeros, written and fdatasynced. A new key takes a ready spare
// (link, then unlink of the spare's name), so the blocks a WAL commit
// lands in were written before, and Sync's fdatasync flushes data only.
// Reserved blocks would not do: on ext4, fallocate leaves unwritten
// extents, and the next fdatasync after the first write into one
// journals its conversion (DESIGN.md §8e). A spare starts only when an
// append carries a segment past half its size, so a store writes at most
// two bytes of zeros per byte appended, and one that appends little (a
// test's, or one whose segments snapshots cut short) writes none; the
// zeros also go down mid-segment, away from the rotation a snapshot's
// cut makes and the part and manifest fsyncs that follow it. A new key
// that finds no spare ready (a store's first), or whose first append
// outgrows one, falls back to prealloc, as does an append past a
// segment's size: a snapshot part's, and a WAL segment's last commit,
// which crosses its size before the WAL rotates. Get reads the published
// prefix back with pread; the WAL's live segments are written and synced
// thousands of times per second but read back only on recovery and by
// the snapshot fold.
//
// Set/Delete keys (manifests) are plain files. Update stages the batch,
// then applies every Set as write-temp, fsync, rename (per-key atomic: a
// crash leaves the old value or the new one, never a torn mix), fsyncs
// the directory, and only then applies the Deletes. That ordering is the
// contract recovery builds on: a new snapshot is fully durable before
// the WAL segments it supersedes disappear. Get falls back to the plain
// file for any key without a segment, so a directory of plain appended
// files still reads.
//
// Because a segment is physically larger than its logical content, the
// store must bound the valid tail on reopen. Appended keys are assumed
// to hold the durable tier's length-prefixed record framing (u32
// big-endian body length, body, u32 CRC-32/IEEE trailer): the scan walks
// whole records and stops at a zero length prefix — impossible as a real
// body length, guaranteed present because a segment's unused bytes are
// zero, written so by the spare or read so from prealloc — and a final
// record that is structurally short or fails its checksum is discarded
// as a torn, never-acknowledged tail (see scanRecordTail). In-process the
// published offset is exact and no scan happens; Get returns every byte
// appended so far, synced or not. A spare left by a crash is removed on
// reopen, whatever it holds.
type Disk struct {
	dir      string
	segBytes int

	mu      sync.Mutex
	segs    map[string]*seg
	dirty   map[string]struct{}
	closed  bool
	spare   *os.File       // zeroed and synced, ready for the next new key; nil while none is
	zeroing bool           // a goroutine is writing the next spare
	zeroed  sync.WaitGroup // that goroutine; Close waits for it
}

// seg is one open segment file. The caller (the WAL's group-commit lock)
// serializes appends per key, so size is touched by one appender at a
// time; readers synchronize with it through the atomic offset. An Update
// delete closes f under the store mutex, and a read or write that loses
// that race fails with os.ErrClosed instead of touching a reused fd.
type seg struct {
	f    *os.File
	size int64        // bytes the file holds: written zeros or prealloc'd
	off  atomic.Int64 // published length of the valid appended prefix
}

// OpenMmap opens (creating if needed) the segment store rooted at dir.
// segBytes is the size of a new appended key's segment, and of each spare
// the store zeroes (0 = DefaultSegmentBytes); existing segments get their
// valid tails re-established by the record scan. The store maps nothing:
// the name is kept because the benchmark module (bench/) calls it.
func OpenMmap(dir string, segBytes int) (*Disk, error) {
	if dir == "" {
		return nil, fmt.Errorf("kv: empty store directory")
	}
	if segBytes <= 0 {
		segBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Disk{
		dir:      dir,
		segBytes: segBytes,
		segs:     make(map[string]*seg),
		dirty:    make(map[string]struct{}),
	}
	// A crash can leave a spare at any length, mid-zeroing; it holds no
	// data, so it goes rather than being checked.
	if err := os.Remove(filepath.Join(dir, spareName)); err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, scanWindow) // one scan buffer, reused across segments
	for _, e := range ents {
		name, ok := strings.CutSuffix(e.Name(), segSuffix)
		if e.IsDir() || !ok {
			continue
		}
		key, ok := unescapeKey(name)
		if !ok {
			continue
		}
		g, err := openSeg(filepath.Join(dir, e.Name()), &buf)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("kv: reopen segment %s: %w", e.Name(), err)
		}
		s.segs[key] = g
	}
	return s, nil
}

// OpenFile is OpenMmap with the default segment size. The name is kept
// because the benchmark module (bench/) calls it.
func OpenFile(dir string) (*Disk, error) { return OpenMmap(dir, 0) }

// escapeKey maps a key to a file name, escaping every byte outside
// [A-Za-z0-9._-] as %XX (including '%' itself and '/').
func escapeKey(key string) string {
	var b strings.Builder
	for i := 0; i < len(key); i++ {
		c := key[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '.' || c == '_' || c == '-' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02x", c)
		}
	}
	return b.String()
}

// unescapeKey reverses escapeKey; ok is false for names this store never
// produced (stray files are skipped by List rather than failing it).
func unescapeKey(name string) (string, bool) {
	if !strings.ContainsRune(name, '%') {
		return name, true
	}
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c != '%' {
			b.WriteByte(c)
			continue
		}
		if i+2 >= len(name) {
			return "", false
		}
		var v int
		if _, err := fmt.Sscanf(name[i+1:i+3], "%02x", &v); err != nil {
			return "", false
		}
		b.WriteByte(byte(v))
		i += 2
	}
	return b.String(), true
}

func (s *Disk) path(key string) string    { return filepath.Join(s.dir, escapeKey(key)) }
func (s *Disk) segPath(key string) string { return s.path(key) + segSuffix }

// newSeg creates the segment file for a new key, sized to hold at least
// need bytes. s.mu is held. When need fits one segment, the ready spare
// takes the name: link, unlike rename, fails if the name exists, as
// O_EXCL does below, so the move never replaces a file. Otherwise — no
// spare ready, an oversized first append, or a filesystem that refuses
// the link — the file is created and its blocks are reserved by
// prealloc.
func (s *Disk) newSeg(path string, need int) (*seg, error) {
	if f := s.spare; f != nil && need <= s.segBytes {
		spare := filepath.Join(s.dir, spareName)
		if err := os.Link(spare, path); err == nil {
			s.spare = nil
			if err := os.Remove(spare); err != nil {
				f.Close()
				return nil, err
			}
			return &seg{f: f, size: int64(s.segBytes)}, nil
		}
	}
	size := int64(max(s.segBytes, need))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	if err := prealloc(f, size); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return &seg{f: f, size: size}, nil
}

// makeSpare writes segBytes of zeros to a fresh spare file, fdatasyncs
// it and hands it to the store, or removes it if the store has closed
// meanwhile. A failure is not reported: it leaves no spare, so the next
// new key takes prealloc's path, which reports a full disk itself, and
// the next append past a segment's half starts another attempt.
func (s *Disk) makeSpare() {
	defer s.zeroed.Done()
	path := filepath.Join(s.dir, spareName)
	f, err := writeZeros(path, s.segBytes)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.zeroing = false
	if err != nil {
		return
	}
	if s.closed {
		f.Close()
		os.Remove(path)
		return
	}
	s.spare = f
}

// writeZeros creates path (which must not exist) holding size zero bytes,
// written from zeroBlock and made durable.
func writeZeros(path string, size int) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	for off := 0; off < size && err == nil; off += len(zeroBlock) {
		_, err = f.Write(zeroBlock[:min(len(zeroBlock), size-off)])
	}
	if err == nil {
		err = flushSeg(f)
	}
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return f, nil
}

// openSeg opens an existing segment file and re-establishes its valid
// tail with the zero-length-prefix record scan, reading through *buf.
// Bytes beyond the tail — a torn final record, or garbage a previous
// torn tail left — are zeroed so future scans start from a clean
// frontier.
func openSeg(path string, buf *[]byte) (*seg, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	size := fi.Size()
	tail, err := segTail(f, size, buf)
	if err == nil {
		err = zeroFrom(f, tail, size, *buf)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	g := &seg{f: f, size: size}
	g.off.Store(tail)
	return g, nil
}

// segTail runs scanRecordTail over successive windows of f read into
// *buf. A window ends wherever the buffer does, so a record the window
// cuts short is read again from its start by the next window (the
// buffer grows if that one record outsizes it); any other stop is the
// segment's tail.
func segTail(f *os.File, size int64, buf *[]byte) (int64, error) {
	var base int64
	for {
		win := (*buf)[:min(int64(len(*buf)), size-base)]
		if _, err := f.ReadAt(win, base); err != nil {
			return 0, err
		}
		t := scanRecordTail(win)
		if base+int64(len(win)) == size {
			return base + int64(t), nil // the window reaches the end of the file
		}
		if rest := win[t:]; len(rest) >= scanHeader {
			body := int(binary.BigEndian.Uint32(rest))
			need := scanHeader + body + scanTrailer
			if body == 0 || need <= len(rest) || base+int64(t+need) > size {
				return base + int64(t), nil // zero frontier, bad checksum, or past the end
			}
			if t == 0 {
				*buf = make([]byte, need) // one record outsizes the window
			}
		}
		base += int64(t)
	}
}

// zeroFrom zeroes every nonzero byte of f in [from, size), reading
// through buf and writing the zeros with pwrite — never through a
// mapping, whose writable PTEs would make every later fdatasync pay a
// page-table cleaning pass.
func zeroFrom(f *os.File, from, size int64, buf []byte) error {
	for base := from; base < size; {
		win := buf[:min(int64(len(buf)), size-base)]
		if _, err := f.ReadAt(win, base); err != nil {
			return err
		}
		lo, hi := -1, 0
		for i, c := range win {
			if c != 0 {
				if lo < 0 {
					lo = i
				}
				hi = i + 1
			}
		}
		if lo >= 0 {
			clear(win[lo:hi])
			if _, err := f.WriteAt(win[lo:hi], base+int64(lo)); err != nil {
				return err
			}
		}
		base += int64(len(win))
	}
	return nil
}

// Record framing constants mirrored from internal/durable's WAL format
// (DESIGN.md §8a). The scan only needs the envelope: u32 body length,
// body bytes, u32 CRC-32/IEEE over the body.
const (
	scanHeader  = 4
	scanTrailer = 4
)

// scanRecordTail bounds the valid appended prefix of a reopened segment.
// It walks length-prefixed records; a zero length prefix marks the
// frontier (real bodies are never empty, a segment's unused bytes always
// are). The final record before the frontier additionally has its
// checksum verified: a record a crash tore mid-write has intact earlier
// bytes and zero (or short) later ones, so it is structurally short or
// checksum-broken — and since a Sync barrier returns only after every
// prior append is physically durable, a record that fails here was never
// covered by one, i.e. never acknowledged, and is discarded.
func scanRecordTail(data []byte) int {
	off := 0
	for off+scanHeader <= len(data) {
		body := int(binary.BigEndian.Uint32(data[off:]))
		if body == 0 {
			return off // the zero-length frontier
		}
		end := off + scanHeader + body + scanTrailer
		if end > len(data) {
			return off // claims bytes past the segment: torn final record
		}
		rec := data[off+scanHeader : off+scanHeader+body]
		crc := binary.BigEndian.Uint32(data[off+scanHeader+body:])
		if crc32.ChecksumIEEE(rec) != crc {
			return off // torn (or rotted) final record; discard
		}
		off = end
	}
	return off
}

// Get implements Store. For appended keys the value is every byte
// appended so far (synced or not); for Set keys it is the file content.
func (s *Disk) Get(key string) ([]byte, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, false, errClosed
	}
	g := s.segs[key]
	s.mu.Unlock()
	if g != nil {
		out := make([]byte, g.off.Load())
		if _, err := g.f.ReadAt(out, 0); err != nil {
			if errors.Is(err, os.ErrClosed) {
				return nil, false, nil // lost a race with an Update delete
			}
			return nil, false, err
		}
		return out, true, nil
	}
	buf, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return buf, true, nil
}

// List implements Store.
func (s *Disk) List(prefix string) ([]string, error) {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return nil, errClosed
	}
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range ents {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".tmp") {
			continue
		}
		key, ok := unescapeKey(strings.TrimSuffix(e.Name(), segSuffix))
		if !ok || !strings.HasPrefix(key, prefix) {
			continue
		}
		keys = append(keys, key)
	}
	sort.Strings(keys)
	return keys, nil
}

// diskTx stages one Update batch.
type diskTx struct {
	s    *Disk
	sets map[string][]byte
	dels []string
}

func (tx *diskTx) Get(key string) ([]byte, bool, error) { return tx.s.Get(key) }
func (tx *diskTx) List(prefix string) ([]string, error) { return tx.s.List(prefix) }
func (tx *diskTx) Delete(key string)                    { tx.dels = append(tx.dels, key) }
func (tx *diskTx) Set(key string, val []byte) {
	cp := make([]byte, len(val))
	copy(cp, val)
	tx.sets[key] = cp
}

// Update implements Store: sets via write-temp/fsync/rename, a directory
// fsync making them durable, then deletes (closing segments before their
// files go), then a final directory fsync.
func (s *Disk) Update(fn func(Tx) error) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	s.mu.Unlock()
	// The callback runs unlocked: tx.Get/List take s.mu themselves.
	tx := &diskTx{s: s, sets: make(map[string][]byte)}
	if err := fn(tx); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	keys := make([]string, 0, len(tx.sets))
	for k := range tx.sets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		dst := s.path(k)
		tmp := dst + ".tmp"
		if err := writeFileSync(tmp, tx.sets[k]); err != nil {
			return err
		}
		if err := os.Rename(tmp, dst); err != nil {
			return err
		}
	}
	if len(tx.sets) > 0 {
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	for _, k := range tx.dels {
		if g, ok := s.segs[k]; ok {
			g.f.Close()
			delete(s.segs, k)
			delete(s.dirty, k)
			if err := os.Remove(s.segPath(k)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		if err := os.Remove(s.path(k)); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	if len(tx.dels) > 0 {
		if err := s.syncDir(); err != nil {
			return err
		}
	}
	return nil
}

// syncDir fsyncs the directory so renames, creations and removals are
// themselves durable.
func (s *Disk) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Append implements Store: pwrite into the segment, then publish the new
// offset (pwrite returning orders the page-cache update before the store,
// so a reader that observes the offset reads the bytes). The first append
// to a key creates its segment, from the spare when one is ready (newSeg),
// and then fsyncs the directory so the name survives; an append past the
// segment's size first doubles it with prealloc, and one past its half
// starts the next spare if none is ready or being written (see Disk).
func (s *Disk) Append(key string, data []byte) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errClosed
	}
	g, ok := s.segs[key]
	if !ok {
		var err error
		g, err = s.newSeg(s.segPath(key), len(data))
		if err != nil {
			s.mu.Unlock()
			return err
		}
		s.segs[key] = g
		if err := s.syncDir(); err != nil {
			s.mu.Unlock()
			return err
		}
	}
	s.dirty[key] = struct{}{}
	s.mu.Unlock()

	off := g.off.Load()
	end := off + int64(len(data))
	if end > g.size {
		if err := s.grow(key, g, end); err != nil {
			return err
		}
	}
	if _, err := g.f.WriteAt(data, off); err != nil {
		if errors.Is(err, os.ErrClosed) {
			return errDeleted(key)
		}
		return err
	}
	g.off.Store(end)
	if half := g.size / 2; off < half && end >= half { // mid-segment: zero the next spare
		s.mu.Lock()
		if !s.closed && s.spare == nil && !s.zeroing {
			s.zeroing = true
			s.zeroed.Add(1)
			go s.makeSpare()
		}
		s.mu.Unlock()
	}
	return nil
}

// grow extends g with prealloc to at least twice its size. It holds the
// store mutex so an Update delete cannot close the descriptor underneath
// the raw-fd fallocate.
func (s *Disk) grow(key string, g *seg, need int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.segs[key] != g {
		return errDeleted(key)
	}
	size := max(2*g.size, need)
	if err := prealloc(g.f, size); err != nil {
		return err
	}
	g.size = size
	return nil
}

func errDeleted(key string) error { return fmt.Errorf("kv: append to deleted segment %q", key) }

// Sync implements Store: flush every segment appended since the last
// barrier. fdatasync suffices — an append never changes the file size.
// Into a segment taken from the spare it flushes data only; into one
// from prealloc, or past a growth, ext4 also journals the conversion of
// each block written for the first time (see Disk).
func (s *Disk) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	for k := range s.dirty {
		if g, ok := s.segs[k]; ok {
			if err := flushSeg(g.f); err != nil {
				return err
			}
		}
		delete(s.dirty, k)
	}
	return nil
}

// Close implements Store. It removes the ready spare, and waits for a
// spare being written, which removes itself.
func (s *Disk) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	var first error
	for _, g := range s.segs {
		if err := g.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	s.segs = nil
	if s.spare != nil {
		s.spare.Close()
		if err := os.Remove(filepath.Join(s.dir, spareName)); err != nil && first == nil {
			first = err
		}
		s.spare = nil
	}
	s.mu.Unlock()
	s.zeroed.Wait()
	return first
}
