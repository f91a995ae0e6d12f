package cpq

import (
	"errors"
	"strings"
	"testing"

	"cpq/internal/spray"
)

// TestRegistryRoundTrip: every advertised identifier constructs, reports
// itself under the same name, and yields a usable queue.
func TestRegistryRoundTrip(t *testing.T) {
	for _, name := range Names() {
		q, err := NewQueue(name, Options{Threads: 4})
		if err != nil {
			t.Fatalf("NewQueue(%q): %v", name, err)
		}
		if q.Name() != name {
			t.Fatalf("NewQueue(%q).Name() = %q", name, q.Name())
		}
		h := q.Handle()
		h.Insert(42, 1)
		if k, _, ok := h.DeleteMin(); !ok || k != 42 {
			t.Fatalf("NewQueue(%q): inserted 42, deleted (%d, %v)", name, k, ok)
		}
	}
}

func TestUnknownQueueError(t *testing.T) {
	_, err := NewQueue("nope", Options{})
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	var unknown *UnknownQueueError
	if !errors.As(err, &unknown) {
		t.Fatalf("error %v is not an *UnknownQueueError", err)
	}
	if unknown.Name != "nope" {
		t.Fatalf("Name = %q", unknown.Name)
	}
	if len(unknown.Known) != len(Names()) {
		t.Fatalf("Known = %v", unknown.Known)
	}
	if msg := err.Error(); !strings.Contains(msg, "klsm128") || !strings.Contains(msg, `"nope"`) {
		t.Fatalf("error message lacks name or known list: %s", msg)
	}
	// Malformed parameters of a recognized family are NOT unknown-queue
	// errors — callers distinguish a typo'd name from a bad parameter.
	if _, err := NewQueue("klsm0", Options{}); err == nil || errors.As(err, &unknown) {
		t.Fatalf("bad parameter reported as unknown queue: %v", err)
	}
}

func TestOptionsApplied(t *testing.T) {
	// Zero value is valid and means one thread.
	if q, err := NewQueue("spray", Options{}); err != nil || q.(*spray.Queue).P() != 1 {
		t.Fatalf("zero Options: %v, %v", q, err)
	}
	if q, _ := NewQueue("spray", Options{Threads: -3}); q.(*spray.Queue).P() != 1 {
		t.Fatal("negative Threads not clamped to 1")
	}
	if q, _ := NewQueue("spray", Options{Threads: 16}); q.(*spray.Queue).P() != 16 {
		t.Fatal("Threads not forwarded to the spray geometry")
	}
}

// TestParseMultiQSpecTable pins the spec grammar, in particular that a
// duplicated parameter is rejected rather than silently last-wins.
func TestParseMultiQSpecTable(t *testing.T) {
	cases := []struct {
		spec    string
		c, s, b int
		wantErr string
	}{
		{spec: "s4-b8", c: 4, s: 4, b: 8},
		{spec: "c8-s4-b8", c: 8, s: 4, b: 8},
		{spec: "b8", c: 4, s: 1, b: 8},
		{spec: "c2", c: 2, s: 1, b: 1},
		{spec: "s4-s8", wantErr: "duplicate"},
		{spec: "c2-c2", wantErr: "duplicate"},
		{spec: "b8-b8", wantErr: "duplicate"},
		{spec: "s4-b8-s4", wantErr: "duplicate"},
		{spec: "", wantErr: "bad"},
		{spec: "s", wantErr: "bad"},
		{spec: "s0", wantErr: "bad"},
		{spec: "sx", wantErr: "bad"},
		{spec: "z4", wantErr: "bad"},
		{spec: "s4--b8", wantErr: "bad"},
	}
	for _, tc := range cases {
		c, s, b, err := parseMultiQSpec(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("parseMultiQSpec(%q) = (%d,%d,%d,%v), want %q error",
					tc.spec, c, s, b, err, tc.wantErr)
			}
			continue
		}
		if err != nil || c != tc.c || s != tc.s || b != tc.b {
			t.Fatalf("parseMultiQSpec(%q) = (%d,%d,%d,%v), want (%d,%d,%d)",
				tc.spec, c, s, b, err, tc.c, tc.s, tc.b)
		}
	}
}

// FuzzParseMultiQSpec: the spec parser must never panic, and every accepted
// spec must produce in-range parameters and a queue whose name round-trips
// through the registry.
func FuzzParseMultiQSpec(f *testing.F) {
	for _, s := range []string{"s4-b8", "c8-s4-b8", "b8", "", "s", "s0", "z4", "s4-s4", "c1-s1-b1"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		c, s, b, err := parseMultiQSpec(spec)
		if err != nil {
			return
		}
		if c < 1 || s < 1 || b < 1 {
			t.Fatalf("parseMultiQSpec(%q) accepted out-of-range (%d,%d,%d)", spec, c, s, b)
		}
		q, err := NewQueue("multiq-"+spec, Options{Threads: 2})
		if err != nil {
			t.Fatalf("accepted spec %q did not construct: %v", spec, err)
		}
		if rt, err := NewQueue(q.Name(), Options{Threads: 2}); err != nil || rt.Name() != q.Name() {
			t.Fatalf("name %q does not round-trip: %v", q.Name(), err)
		}
	})
}

// FuzzNewQueue: no identifier may panic the registry; accepted identifiers
// must yield a queue with a non-empty name and working operations.
func FuzzNewQueue(f *testing.F) {
	for _, n := range Names() {
		f.Add(n, 4)
	}
	f.Add("klsm0", 1)
	f.Add("klsm99999999999999999999", 1)
	f.Add(" LINDEN ", -1)
	f.Add("multiq-s4-s4", 0)
	f.Add("", 2)
	f.Fuzz(func(t *testing.T, name string, threads int) {
		if threads > 64 {
			threads = 64 // keep sub-queue arrays small
		}
		// Skip astronomically large (but well-formed) parameters: a
		// "multiq1000000000" would legitimately allocate c·p sub-heaps.
		digits := 0
		for _, r := range name {
			if r >= '0' && r <= '9' {
				digits++
			}
		}
		if digits > 4 {
			return
		}
		q, err := NewQueue(name, Options{Threads: threads})
		if err != nil {
			return
		}
		if q.Name() == "" {
			t.Fatalf("NewQueue(%q) built a nameless queue", name)
		}
		h := q.Handle()
		h.Insert(7, 7)
		if k, _, ok := h.DeleteMin(); !ok || k != 7 {
			t.Fatalf("NewQueue(%q): inserted 7, deleted (%d, %v)", name, k, ok)
		}
	})
}
