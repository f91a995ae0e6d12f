//go:build !linux

package kv

import "os"

// prealloc off Linux, for the fallback and growth paths (see Disk):
// extend the inode with truncate. This does not allocate blocks the way
// fallocate does, but it leaves the zeroed region the reopen scan relies
// on; new keys normally take a spare of written zeros instead.
func prealloc(f *os.File, size int64) error {
	return f.Truncate(size)
}

// flushSeg falls back to a full fsync where fdatasync isn't portable.
func flushSeg(f *os.File) error {
	return f.Sync()
}
