package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"cpq/internal/netpq"
	"cpq/internal/pq"
)

// TestShutdownPrintsWALStats: a graceful stop of pqd -durable prints,
// after the server's stats line, one line per served queue with that
// queue's WAL records, fsyncs and snapshots.
func TestShutdownPrintsWALStats(t *testing.T) {
	const qid = "globallock#wal"
	child, addr, rest := spawnPQD(t, "-addr", "127.0.0.1:0", "-durable", filepath.Join(t.TempDir(), "wal"))
	c, err := netpq.Dial(addr, qid)
	if err != nil {
		child.Process.Kill()
		child.Wait()
		t.Fatal(err)
	}
	err = c.InsertN([]pq.KV{{Key: 1, Value: 10}, {Key: 2, Value: 20}})
	c.Close()
	if err != nil {
		child.Process.Kill()
		child.Wait()
		t.Fatal(err)
	}
	if err := child.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	out := rest()
	if err := child.Wait(); err != nil {
		t.Fatalf("graceful shutdown exited with error: %v\n%s", err, out)
	}

	statsAt := strings.Index(out, "pqd: conns=")
	prefix := "pqd: wal " + qid + ": "
	walAt := strings.Index(out, prefix)
	if statsAt < 0 || walAt < statsAt {
		t.Fatalf("want the server stats line, then a %q line; got:\n%s", prefix, out)
	}
	line, _, _ := strings.Cut(out[walAt+len(prefix):], "\n")
	var records, fsyncs, snapshots uint64
	if _, err := fmt.Sscanf(line, "records=%d fsyncs=%d snapshots=%d", &records, &fsyncs, &snapshots); err != nil {
		t.Fatalf("parse %q: %v", line, err)
	}
	// One logged InsertN, at least one fsync to acknowledge it, and the
	// final snapshot Close takes.
	if records < 1 || fsyncs < 1 || snapshots < 1 {
		t.Fatalf("wal line %q: want records, fsyncs and snapshots all >= 1", line)
	}
}
