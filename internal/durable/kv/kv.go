// Package kv defines the minimal storage interface the durable queue tier
// (internal/durable) persists through, with an in-memory implementation
// for tests and a segment-file disk implementation (Disk) for production
// use, whose new segments are taken from a spare of written zeros.
//
// The interface is deliberately small — point reads, sorted prefix
// listing, an atomic write batch, raw appends, and a durability barrier —
// patterned on the minimal Get/Set/List transaction APIs of embedded
// object stores, so that a future backend (badger-style LSM, an object
// bucket) slots in under the WAL and snapshot machinery without touching
// the queue layer. Everything the durable tier stores goes through these
// six methods:
//
//   - WAL segments are built with Append + Sync: Append adds bytes to the
//     end of a key's value and never rewrites earlier bytes (append-safe:
//     a crash can truncate the tail, never corrupt the prefix), and Sync
//     is the group-commit barrier — when it returns, every append that
//     happened-before it is durable.
//   - Snapshots and truncation go through Update: a write batch of
//     Set/Delete operations applied together and durable when Update
//     returns. Implementations need only per-key atomicity plus ordering
//     (sets land before deletes); the durable tier's recovery protocol is
//     designed around that weaker contract so simple file backends
//     qualify (see internal/durable's snapshot/truncate rule).
//
// Keys are flat strings; the durable tier namespaces with "wal/",
// "part/" and "manifest/" prefixes and relies on List returning keys in
// ascending byte order.
package kv

// Tx is the view inside an Update write batch. Set and Delete stage
// mutations that become visible and durable together when the Update
// callback returns nil; Get and List observe the pre-batch state (the
// durable tier never reads its own staged writes).
type Tx interface {
	// Get returns the value stored at key, with ok = false when absent.
	Get(key string) (val []byte, ok bool, err error)
	// Set stages a full-value write of key.
	Set(key string, val []byte)
	// Delete stages removal of key. Deleting an absent key is a no-op.
	Delete(key string)
	// List returns the keys with the given prefix, ascending.
	List(prefix string) ([]string, error)
}

// Store is the pluggable backend. Append/Sync and Update may be called
// concurrently with Get/List; callers (the WAL's group-commit lock)
// serialize appends to any single key themselves.
type Store interface {
	// Get returns the value stored at key, with ok = false when absent.
	// For appended keys the value is every byte appended so far.
	Get(key string) (val []byte, ok bool, err error)
	// List returns the keys with the given prefix, ascending.
	List(prefix string) ([]string, error)
	// Update applies fn's staged write batch. When Update returns nil the
	// batch is durable. An error from fn (or the backend) discards the
	// batch. Sets are applied before deletes; each key is atomic.
	Update(fn func(Tx) error) error
	// Append adds data to the end of key's value, creating the key if
	// absent. Appended bytes are durable only after the next Sync; bytes
	// already present are never modified (append-safe).
	Append(key string, data []byte) error
	// Sync is the durability barrier for Append: it returns once every
	// prior append is persisted.
	Sync() error
	// Close releases backend resources. The store is unusable afterwards.
	Close() error
}
