//go:build !linux

package kv

import "os"

// prealloc off Linux: extend the inode with truncate. This does not
// guarantee block allocation the way fallocate does, but it leaves the
// zeroed region the reopen scan relies on; the metadata-journaling
// optimisation is best-effort per platform.
func prealloc(f *os.File, size int64) error {
	return f.Truncate(size)
}

// flushSeg falls back to a full fsync where fdatasync isn't portable.
func flushSeg(f *os.File) error {
	return f.Sync()
}
