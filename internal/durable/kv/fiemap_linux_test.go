package kv

import (
	"encoding/binary"
	"errors"
	"os"
	"syscall"
	"testing"
	"unsafe"
)

// The FIEMAP ioctl's request, flags and record sizes (linux/fiemap.h).
const (
	fsIocFiemap           = 0xC020660B
	fiemapFlagSync        = 0x1   // write the file back before mapping it
	fiemapExtentLast      = 0x1   // the file's last extent
	fiemapExtentUnwritten = 0x800 // allocated, not yet written: reads as zeros
	fiemapHeaderBytes     = 32
	fiemapExtentBytes     = 56
	fiemapBatch           = 32 // extents asked for per call
)

// unwrittenRanges returns the [start, end) byte ranges below n that f
// holds no written block for: its unwritten extents, and its holes.
func unwrittenRanges(f *os.File, n int64) ([][2]int64, error) {
	words := make([]uint64, (fiemapHeaderBytes+fiemapBatch*fiemapExtentBytes)/8) // 8-aligned
	buf := unsafe.Slice((*byte)(unsafe.Pointer(&words[0])), len(words)*8)
	ne := binary.NativeEndian
	var out [][2]int64
	var start int64 // everything below start is accounted for
	for start < n {
		clear(buf)
		ne.PutUint64(buf[0:], uint64(start))   // fm_start
		ne.PutUint64(buf[8:], uint64(n-start)) // fm_length
		ne.PutUint32(buf[16:], fiemapFlagSync) // fm_flags
		ne.PutUint32(buf[24:], fiemapBatch)    // fm_extent_count
		if _, _, errno := syscall.Syscall(syscall.SYS_IOCTL, f.Fd(), fsIocFiemap, uintptr(unsafe.Pointer(&buf[0]))); errno != 0 {
			return nil, errno
		}
		mapped := int(ne.Uint32(buf[20:])) // fm_mapped_extents
		last := mapped == 0                // no extent at or past start: a hole to n
		for i := 0; i < mapped; i++ {
			e := buf[fiemapHeaderBytes+i*fiemapExtentBytes:]
			lo := int64(ne.Uint64(e[0:]))
			hi := lo + int64(ne.Uint64(e[16:]))
			flags := ne.Uint32(e[40:])
			if lo > start {
				out = append(out, [2]int64{start, min(lo, n)})
			}
			if flags&fiemapExtentUnwritten != 0 && lo < n {
				out = append(out, [2]int64{lo, min(hi, n)})
			}
			start, last = max(start, hi), flags&fiemapExtentLast != 0
		}
		if last {
			break
		}
	}
	if start < n {
		out = append(out, [2]int64{start, n})
	}
	return out, nil
}

// TestSpareSegmentIsWritten pins the property the commit path's fdatasync
// rests on: a segment taken from the spare holds written blocks, so a
// commit into it allocates and converts no extent. When its first Append
// returns, the segment must hold neither an unwritten extent, as a
// segment reserved by fallocate does on ext4, nor a hole, as a truncated
// one does, within its first segBytes. Skipped where the filesystem does
// not answer FIEMAP.
func TestSpareSegmentIsWritten(t *testing.T) {
	const segBytes = 1 << 20
	s, err := OpenMmap(t.TempDir(), segBytes)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	readyCreation(t, s, "spare")
	if err := s.Append("wal/1", frame(make([]byte, 4800))); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(s.segPath("wal/1"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	ranges, err := unwrittenRanges(f, segBytes)
	if errors.Is(err, syscall.EOPNOTSUPP) || errors.Is(err, syscall.ENOTTY) {
		t.Skipf("FIEMAP unsupported here: %v", err)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) > 0 {
		t.Fatalf("no written block in %v, within the segment's first %d bytes", ranges, segBytes)
	}
}
