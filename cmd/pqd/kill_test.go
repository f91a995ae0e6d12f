// Kill/recover/conserve: the durable tier's end-to-end crash test. A
// child pqd with -durable serves real TCP traffic, is SIGKILLed mid-
// stream, and is restarted over the same log directory; the drained
// recovery must conserve every acknowledged item exactly.
//
// The accounting contract mirrors the WAL's promise:
//
//   - phantom = 0: nothing drains that no client ever sent.
//   - dup = 0: nothing drains twice, and nothing a client saw deleted
//     comes back.
//   - lost ≤ in-flight deletes: an acknowledged insert may only go
//     missing if an unacknowledged DeleteMin (sent, no response before
//     the kill) popped it. The synchronous clients keep at most one
//     operation in flight per connection; the pipelined client keeps up
//     to a window of them, so its allowance is the batch slots of the
//     deletes it had in flight at the kill. Its burst of responses is
//     committed as one, so this also checks that a pipelined
//     acknowledgement is never sent ahead of its sync.
//
// The child is this test binary re-exec'd (TestMain trampoline), so the
// test needs no separate build step and runs under -race with the
// server code instrumented.
package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"cpq/internal/durable"
	"cpq/internal/durable/kv"
	"cpq/internal/netpq"
	"cpq/internal/pq"
)

func TestMain(m *testing.M) {
	if os.Getenv("PQD_CHILD") == "1" {
		os.Args = append([]string{"pqd"}, strings.Split(os.Getenv("PQD_ARGS"), "\x1f")...)
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// spawnPQD re-execs the test binary as a pqd child and waits for its
// listen line to learn the ephemeral address. The returned func blocks
// until the child closes its stderr and returns every line after the
// listen line; call it before Wait, which closes the pipe.
func spawnPQD(t *testing.T, args ...string) (*exec.Cmd, string, func() string) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "PQD_CHILD=1", "PQD_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	addrCh := make(chan string, 1)
	restCh := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); i >= 0 {
				addrCh <- strings.TrimSpace(line[i+len("listening on "):])
				break
			}
		}
		// Keep the pipe drained so the child never blocks on stderr.
		var rest strings.Builder
		for sc.Scan() {
			rest.WriteString(sc.Text() + "\n")
		}
		restCh <- rest.String()
	}()
	select {
	case addr := <-addrCh:
		return cmd, addr, func() string { return <-restCh }
	case <-time.After(15 * time.Second):
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("child pqd never reported its listen address")
		return nil, "", nil
	}
}

// copyDir snapshots the durable directory tree for forensic replay.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		sp, dp := filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())
		if e.IsDir() {
			copyDir(t, sp, dp)
			continue
		}
		data, err := os.ReadFile(sp)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(dp, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// killKey derives a deterministic key from a unique value so workers
// need no shared RNG (splitmix64 finalizer).
func killKey(v uint64) uint64 {
	v ^= v >> 30
	v *= 0xbf58476d1ce4e5b9
	v ^= v >> 27
	v *= 0x94d049bb133111eb
	return v ^ v>>31
}

// workerLog is one connection's view of the acknowledged history.
type workerLog struct {
	ackedIns      []pq.KV
	ackedDel      []pq.KV
	unackedIns    []pq.KV // the in-flight insert batches
	unackedDelMax int     // batch slots of the in-flight deletes
}

func replayDir(t *testing.T, dir string) []pq.KV {
	t.Helper()
	store, err := kv.OpenMmap(dir, 0)
	if err != nil {
		t.Fatalf("open store %s: %v", dir, err)
	}
	defer store.Close()
	items, err := durable.ReplayStore(store)
	if err != nil {
		t.Fatalf("ReplayStore(%s): %v", dir, err)
	}
	return items
}

func TestKillRecoverConserve(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes and fsyncs; skipped in -short")
	}
	for _, fam := range []string{"klsm128", "multiq-s4-b8", "linden"} {
		t.Run(fam, func(t *testing.T) {
			const (
				workers = 4 // synchronous; one more worker pipelines
				batch   = 4
				window  = 32   // the pipelined worker's requests in flight
				target  = 1200 // acked ops across all workers before the kill
			)
			dir := t.TempDir()
			durDir := filepath.Join(dir, "wal")
			qid := fam + "#kill" // instance tag: exercises per-id log subdirs
			args := []string{"-addr", "127.0.0.1:0", "-durable", durDir, "-snap-every", "100000"}

			child, addr, _ := spawnPQD(t, args...)

			var acked atomic.Uint64
			logs := make([]workerLog, workers+1)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					lg := &logs[w]
					c, err := netpq.Dial(addr, qid)
					if err != nil {
						t.Errorf("worker %d dial: %v", w, err)
						return
					}
					defer c.Close()
					ins := make([]pq.KV, batch)
					del := make([]pq.KV, batch)
					seq := uint64(0)
					for i := 0; ; i++ {
						if i%4 == 3 { // one delete per three insert batches: queue grows
							n, err := c.DeleteMinN(del, batch)
							if err != nil {
								lg.unackedDelMax = batch
								return
							}
							lg.ackedDel = append(lg.ackedDel, del[:n]...)
						} else {
							for j := range ins {
								v := uint64(w)<<32 | seq
								seq++
								ins[j] = pq.KV{Key: killKey(v), Value: v}
							}
							if err := c.InsertN(ins); err != nil {
								lg.unackedIns = append(lg.unackedIns, ins...)
								return
							}
							lg.ackedIns = append(lg.ackedIns, ins...)
						}
						acked.Add(1)
					}
				}(w)
			}

			// The pipelined worker: fill the window, drain it to half, as
			// pqload does, so each burst holds many mutating requests.
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				lg := &logs[w]
				c, err := netpq.Dial(addr, qid)
				if err != nil {
					t.Errorf("pipelined worker dial: %v", err)
					return
				}
				defer c.Close()
				var inFlight [][]pq.KV // each request's insert batch; nil for a delete
				seq := uint64(0)
				defer func() { // the kill: nothing still in flight was acknowledged
					for _, ins := range inFlight {
						if ins == nil {
							lg.unackedDelMax += batch
						}
						lg.unackedIns = append(lg.unackedIns, ins...)
					}
				}()
				for i := 0; ; {
					for ; len(inFlight) < window; i++ {
						var err error
						if i%4 == 3 {
							_, err = c.StartDeleteMinN(batch)
							inFlight = append(inFlight, nil)
						} else {
							ins := make([]pq.KV, batch)
							for j := range ins {
								v := uint64(w)<<32 | seq
								seq++
								ins[j] = pq.KV{Key: killKey(v), Value: v}
							}
							_, err = c.StartInsertN(ins)
							inFlight = append(inFlight, ins)
						}
						if err != nil {
							return
						}
					}
					for len(inFlight) > window/2 {
						r, err := c.Recv()
						if err != nil {
							return
						}
						if r.Err != nil {
							t.Errorf("pipelined worker: %v", r.Err)
							return
						}
						if inFlight[0] == nil {
							lg.ackedDel = append(lg.ackedDel, r.KVs...)
						} else {
							lg.ackedIns = append(lg.ackedIns, inFlight[0]...)
						}
						inFlight = inFlight[1:]
						acked.Add(1)
					}
				}
			}(workers)

			deadline := time.Now().Add(30 * time.Second)
			for acked.Load() < target {
				if time.Now().After(deadline) {
					child.Process.Kill()
					child.Wait()
					t.Fatalf("only %d/%d ops acked before deadline", acked.Load(), target)
				}
				time.Sleep(2 * time.Millisecond)
			}
			// SIGKILL: no shutdown path, no final snapshot, no fsync beyond
			// what group commit already acknowledged.
			child.Process.Kill()
			child.Wait()
			wg.Wait()

			// Forensics: replay a copy of the log directory as it was at
			// death, twice — recovery must be deterministic.
			qdir := filepath.Join(durDir, qid)
			forensic := filepath.Join(dir, "forensic")
			copyDir(t, qdir, forensic)
			replayA := replayDir(t, forensic)
			replayB := replayDir(t, forensic)
			if len(replayA) != len(replayB) {
				t.Fatalf("forensic replay nondeterministic: %d vs %d items", len(replayA), len(replayB))
			}
			for i := range replayA {
				if replayA[i] != replayB[i] {
					t.Fatalf("forensic replay diverges at %d: %+v vs %+v", i, replayA[i], replayB[i])
				}
			}

			// Restart over the same directory and drain everything.
			child2, addr2, _ := spawnPQD(t, args...)
			defer func() {
				if child2.Process != nil {
					child2.Process.Kill()
					child2.Wait()
				}
			}()
			c, err := netpq.Dial(addr2, qid)
			if err != nil {
				t.Fatalf("dial after restart: %v", err)
			}
			var drained []pq.KV
			dst := make([]pq.KV, 512)
			for empties := 0; empties < 3; {
				got, err := c.DeleteMinN(dst, len(dst))
				if err != nil {
					t.Fatalf("drain: %v", err)
				}
				if got == 0 {
					empties++
					continue
				}
				empties = 0
				drained = append(drained, dst[:got]...)
			}
			c.Close()

			// The restarted server's live set must be exactly the forensic
			// replay: recovery is the replay.
			if len(drained) != len(replayA) {
				t.Fatalf("drained %d items but forensic replay has %d", len(drained), len(replayA))
			}
			inReplay := make(map[pq.KV]bool, len(replayA))
			for _, it := range replayA {
				inReplay[it] = true
			}
			for _, it := range drained {
				if !inReplay[it] {
					t.Fatalf("drained item %+v absent from forensic replay", it)
				}
			}

			// Conservation accounting.
			ackedIns := make(map[pq.KV]bool)
			sent := make(map[pq.KV]bool) // acked + in-flight inserts
			ackedDel := make(map[pq.KV]bool)
			lostAllowance := 0
			for w := range logs {
				for _, it := range logs[w].ackedIns {
					ackedIns[it] = true
					sent[it] = true
				}
				for _, it := range logs[w].unackedIns {
					sent[it] = true
				}
				for _, it := range logs[w].ackedDel {
					ackedDel[it] = true
				}
				lostAllowance += logs[w].unackedDelMax
			}
			seen := make(map[pq.KV]bool, len(drained))
			for _, it := range drained {
				if !sent[it] {
					t.Fatalf("phantom: drained %+v was never sent by any client", it)
				}
				if ackedDel[it] {
					t.Fatalf("resurrection: %+v was acknowledged deleted before the kill", it)
				}
				if seen[it] {
					t.Fatalf("duplicate: %+v drained twice", it)
				}
				seen[it] = true
			}
			lost := 0
			for it := range ackedIns {
				if !ackedDel[it] && !seen[it] {
					lost++
				}
			}
			if lost > lostAllowance {
				t.Fatalf("lost %d acknowledged inserts; only %d in-flight delete slots can explain losses",
					lost, lostAllowance)
			}
			t.Logf("%s: acked=%d drained=%d lost=%d (allowance %d)", fam, acked.Load(), len(drained), lost, lostAllowance)

			// Graceful SIGTERM: final snapshot + sync; the directory must
			// then replay to empty.
			if err := child2.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := child2.Wait(); err != nil {
				t.Fatalf("graceful shutdown exited with error: %v", err)
			}
			if left := replayDir(t, qdir); len(left) != 0 {
				t.Fatalf("drained and gracefully stopped, but directory replays %d live items", len(left))
			}
		})
	}
}
