package kv

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// stores returns every Store implementation: the in-memory one, and the
// disk store through each of its two constructors, each under a fresh
// root — "file" at the default segment size, "mmap" at a small one whose
// appends take the grow path. All give exact byte-for-byte Append/Get
// semantics in process (the record-framing requirement only applies to
// reopen, which the contract test never does — see TestFileReopen,
// TestMmapReopen and segment_test.go).
func stores(t *testing.T) map[string]Store {
	t.Helper()
	f, err := OpenFile(t.TempDir())
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	m, err := OpenMmap(t.TempDir(), 1<<4)
	if err != nil {
		t.Fatalf("OpenMmap: %v", err)
	}
	return map[string]Store{"inmem": NewInmem(), "file": f, "mmap": m}
}

func TestStoreContract(t *testing.T) {
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			if _, ok, err := s.Get("missing"); err != nil || ok {
				t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
			}

			// Append builds values incrementally; Get sees every byte.
			if err := s.Append("wal/0001", []byte("abc")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := s.Append("wal/0001", []byte("def")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			if err := s.Sync(); err != nil {
				t.Fatalf("Sync: %v", err)
			}
			v, ok, err := s.Get("wal/0001")
			if err != nil || !ok || !bytes.Equal(v, []byte("abcdef")) {
				t.Fatalf("Get after appends = %q ok=%v err=%v", v, ok, err)
			}

			// Update: sets and deletes land together; Tx reads pre-state.
			err = s.Update(func(tx Tx) error {
				if _, ok, _ := tx.Get("part/0002"); ok {
					t.Error("tx.Get sees a key that was never written")
				}
				tx.Set("part/0002", []byte("snapshot"))
				tx.Set("meta", []byte("m"))
				return nil
			})
			if err != nil {
				t.Fatalf("Update: %v", err)
			}
			if v, ok, _ := s.Get("part/0002"); !ok || !bytes.Equal(v, []byte("snapshot")) {
				t.Fatalf("Get(part/0002) = %q ok=%v", v, ok)
			}

			// An erroring callback discards the whole batch.
			wantErr := fmt.Errorf("boom")
			if err := s.Update(func(tx Tx) error {
				tx.Set("ghost", []byte("x"))
				return wantErr
			}); err != wantErr {
				t.Fatalf("Update error = %v, want %v", err, wantErr)
			}
			if _, ok, _ := s.Get("ghost"); ok {
				t.Fatal("discarded batch left a key behind")
			}

			// List: prefix-filtered, ascending.
			if err := s.Append("wal/0003", []byte("x")); err != nil {
				t.Fatalf("Append: %v", err)
			}
			keys, err := s.List("wal/")
			if err != nil {
				t.Fatalf("List: %v", err)
			}
			if want := []string{"wal/0001", "wal/0003"}; !reflect.DeepEqual(keys, want) {
				t.Fatalf("List(wal/) = %v, want %v", keys, want)
			}

			// Deletes through Update, including an appended key.
			if err := s.Update(func(tx Tx) error {
				tx.Delete("wal/0001")
				tx.Delete("never-existed")
				return nil
			}); err != nil {
				t.Fatalf("Update(delete): %v", err)
			}
			if _, ok, _ := s.Get("wal/0001"); ok {
				t.Fatal("deleted key still readable")
			}
			if keys, _ := s.List("wal/"); !reflect.DeepEqual(keys, []string{"wal/0003"}) {
				t.Fatalf("List after delete = %v", keys)
			}

			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}
			if _, _, err := s.Get("meta"); err == nil {
				t.Fatal("Get after Close did not error")
			}
		})
	}
}

// TestFileReopen pins the property recovery depends on: a reopened disk
// store re-establishes the valid tail of each segment from the record
// framing, sees every committed Set key, and appends continue from the
// tail rather than from the segment's size. (The in-memory store has
// nothing to reopen.)
func TestFileReopen(t *testing.T) {
	testReopen(t, OpenFile)
}

// TestMmapReopen is TestFileReopen through OpenMmap with segments smaller
// than the default, so the reopen scan walks a segment the appends grew.
func TestMmapReopen(t *testing.T) {
	testReopen(t, func(dir string) (*Disk, error) { return OpenMmap(dir, 1<<4) })
}

func testReopen(t *testing.T, open func(dir string) (*Disk, error)) {
	dir := t.TempDir()
	s, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := frame([]byte("hello")), frame([]byte("world"))
	if err := s.Append("wal/00000001", r1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("wal/00000001", r2); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Update(func(tx Tx) error { tx.Set("manifest/00000001", []byte("M")); return nil }); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want := append(append([]byte(nil), r1...), r2...)
	if v, ok, err := r.Get("wal/00000001"); err != nil || !ok || !bytes.Equal(v, want) {
		t.Fatalf("reopened Get = %d bytes ok=%v err=%v, want %d bytes", len(v), ok, err, len(want))
	}
	if v, ok, _ := r.Get("manifest/00000001"); !ok || string(v) != "M" {
		t.Fatalf("reopened manifest Get = %q ok=%v", v, ok)
	}
	if keys, err := r.List(""); err != nil ||
		!reflect.DeepEqual(keys, []string{"manifest/00000001", "wal/00000001"}) {
		t.Fatalf("reopened List = %v err=%v", keys, err)
	}
	r3 := frame([]byte("!"))
	if err := r.Append("wal/00000001", r3); err != nil {
		t.Fatal(err)
	}
	want = append(want, r3...)
	if v, _, _ := r.Get("wal/00000001"); !bytes.Equal(v, want) {
		t.Fatalf("append after reopen = %d bytes, want %d", len(v), len(want))
	}
}

// TestKeyEscaping round-trips hostile key bytes through the disk store's
// name escaping, and through Append/Get on every store.
func TestKeyEscaping(t *testing.T) {
	keys := []string{
		"wal/0001", "a/b/c", "with space", "pct%sign", "dots..", "UPPER_lower-9",
		"hash#tag", "unicodeé",
	}
	for _, k := range keys {
		got, ok := unescapeKey(escapeKey(k))
		if !ok || got != k {
			t.Fatalf("escape round-trip of %q = %q ok=%v", k, got, ok)
		}
	}
	for name, s := range stores(t) {
		t.Run(name, func(t *testing.T) {
			defer s.Close()
			for i, k := range keys {
				if err := s.Append(k, []byte{byte(i)}); err != nil {
					t.Fatalf("Append(%q): %v", k, err)
				}
			}
			for i, k := range keys {
				v, ok, err := s.Get(k)
				if err != nil || !ok || len(v) != 1 || v[0] != byte(i) {
					t.Fatalf("Get(%q) = %v ok=%v err=%v", k, v, ok, err)
				}
			}
		})
	}
}
