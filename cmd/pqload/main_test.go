package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"cpq/internal/netpq"
)

// TestUsageErrors: every bad command line exits 2 with a message naming
// the value, before any server is started or dialled.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-batch", "0"}, "invalid -batch 0 (want 1..1024"},
		{[]string{"-batch", "1025"}, "invalid -batch 1025 (want 1..1024"},
		{[]string{"-batch", "2000"}, "invalid -batch 2000 (want 1..1024"},
		{[]string{"-conns", "0"}, "-conns and -pipeline must be >= 1"},
		{[]string{"-pipeline", "0"}, "-conns and -pipeline must be >= 1"},
		{[]string{"-keys", "nope"}, `"nope"`},
		{[]string{"-workload", "nope"}, `"nope"`},
		{[]string{"-queues", "nope"}, `unknown queue "nope"`},
		{[]string{"-insert-frac", "0.3"}, "flag provided but not defined: -insert-frac"},
		{[]string{"extra"}, `unexpected argument "extra"`},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != 2 || !strings.Contains(stderr.String(), tc.want) || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q, stderr %q; want exit 2 naming %q",
				tc.args, code, stdout.String(), stderr.String(), tc.want)
		}
	}
}

// TestParseBatchBounds: the protocol's frame cap is the largest -batch
// accepted.
func TestParseBatchBounds(t *testing.T) {
	for _, b := range []int{1, netpq.MaxBatch} {
		if _, err := parse([]string{"-batch", fmt.Sprint(b)}, io.Discard); err != nil {
			t.Errorf("-batch %d: %v", b, err)
		}
	}
}
