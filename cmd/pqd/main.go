// Command pqd serves registry priority queues over TCP using the netpq
// binary protocol (PROTOCOL.md). Any queue the cpq registry can build —
// "klsm4096", "multiq-s4-b8", "linden", ... — becomes reachable from
// other processes, and one server can host several independent instances
// of a spec ("linden#bids", "linden#asks") for applications like the
// limit-order book in examples/orderbook.
//
// Each connection serves one queue session: the Hello handshake names
// the queue, the server acquires a pq.Pool handle for the connection,
// and disconnecting releases it (flushing any buffered items back, so a
// client crash never strands elements in a handle buffer). Requests
// pipeline freely; responses are per-connection FIFO. Backpressure and
// the slow-consumer eviction policy are described in DESIGN.md §7.
//
// With -durable DIR every served queue instance is wrapped in the
// group-commit write-ahead log (DESIGN.md §8) under its own
// subdirectory of DIR, keyed by the full queue id — "linden#bids" and
// "linden#asks" recover independently. A restarted pqd pointed at the
// same DIR replays each instance's snapshot and log tail before serving
// it, so acknowledged items survive a crash of the daemon.
//
//	pqd                          # serve the full registry on 127.0.0.1:9410
//	pqd -addr :9410 -queues klsm4096,multiq-s4-b8 -static
//	pqd -durable /var/lib/pqd -queues linden#bids,linden#asks
//	pqd -telemetry               # print the queues' counter table on shutdown
//
// SIGINT/SIGTERM shut the server down gracefully: the listener closes,
// live connections are dropped (their handles flush back), every queue
// is closed — a durable queue takes its final snapshot and fsyncs here
// — and the server's final stats line goes out before the process
// exits. With -durable one line per served queue follows it: the WAL
// records, fsyncs and snapshots of that queue's log. -telemetry adds the
// queue-internals counter table, and -cpuprofile/-memprofile/-trace
// write their output last.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"sync"
	"syscall"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/durable"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9410", "listen address")
		defQ     = flag.String("queue", "", "default queue spec for Hello frames with an empty queue id")
		preloadF = flag.String("queues", "", "comma-separated queue ids to instantiate at startup (e.g. klsm4096,linden#bids,linden#asks)")
		static   = flag.Bool("static", false, "serve only preloaded queues; reject Hello frames naming anything else")
		stall    = flag.Duration("stall-timeout", 0, "write deadline for a client to drain its responses before it is evicted (0 = default 5s)")
		durableF = flag.String("durable", "", "write-ahead log `dir`: wrap every served queue durably, one subdirectory per queue id")
		snapEv   = flag.Int("snap-every", 0, "durable snapshot cadence in logged ops per queue (0 = explicit/final snapshots only)")
		segBytes = flag.Int("seg-bytes", 0, "durable WAL segment size in bytes (0 = default 1 MiB; also the size of each new store segment)")
		telemF   = flag.Bool("telemetry", false, "collect queue-internals counters; print the table on shutdown (DESIGN.md §5)")
		prof     = cli.NewProfiler(flag.CommandLine)
	)
	flag.Parse()
	telemetry.Enabled = *telemF
	cli.ValidateSnapEvery("pqd", *snapEv)
	cli.ValidateSegBytes("pqd", *segBytes)

	stopProf, err := prof.Start()
	exitOn(err)
	defer stopProf()
	failf := func(err error) { // exitOn that flushes profiles first
		if err != nil {
			fmt.Fprintln(os.Stderr, "pqd:", err)
			stopProf()
			os.Exit(1)
		}
	}

	// The durable queue behind each served id, for the WAL lines printed
	// at shutdown.
	var walMu sync.Mutex
	wals := make(map[string]*durable.Queue)
	opts := netpq.Options{
		NewQueue: func(spec, id string, handles int) (pq.Queue, error) {
			o := cpq.Options{Threads: handles}
			if *durableF != "" {
				// Key the log directory by the full id, not the spec:
				// "linden#bids" and "linden#asks" must recover
				// independently.
				o.Durable = &cpq.DurableOptions{
					Dir:           filepath.Join(*durableF, id),
					SnapshotEvery: *snapEv,
					SegmentBytes:  *segBytes,
				}
			}
			q, err := cpq.NewQueue(spec, o)
			if dq, ok := q.(*durable.Queue); ok {
				walMu.Lock()
				wals[id] = dq
				walMu.Unlock()
			}
			return q, err
		},
		DefaultQueue: *defQ,
		Preload:      cli.ParseList(*preloadF),
		Static:       *static,
		StallTimeout: *stall,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "pqd: "+format+"\n", args...)
		},
	}
	srv, err := netpq.NewServer(opts)
	failf(err)
	ln, err := net.Listen("tcp", *addr)
	failf(err)
	fmt.Fprintf(os.Stderr, "pqd: listening on %s\n", ln.Addr())

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	select {
	case s := <-sig:
		fmt.Fprintf(os.Stderr, "pqd: %s, shutting down\n", s)
		srv.Close()
		<-done
	case err := <-done:
		// Listener failed underneath us; report and fall through to stats.
		if err != nil {
			fmt.Fprintln(os.Stderr, "pqd:", err)
		}
	}
	// Close every served queue after the handlers have drained: pools
	// flush their handles back, and a -durable queue takes its final
	// snapshot and fsyncs the log, so a graceful stop leaves a state
	// that recovers without replaying any WAL tail.
	closeErr := srv.CloseQueues()
	if closeErr != nil {
		fmt.Fprintln(os.Stderr, "pqd:", closeErr)
	}

	st := srv.Stats()
	fmt.Fprintf(os.Stderr,
		"pqd: conns=%d frames in/out=%d/%d items in/out=%d/%d stalls=%d drops=%d\n",
		st.ConnsOpened, st.FramesIn, st.FramesOut, st.ItemsIn, st.ItemsOut,
		st.WriteStalls, st.Drops)
	walMu.Lock()
	printWALStats(wals)
	walMu.Unlock()
	if *telemF {
		printTelemetry(telemetry.Capture())
	}
	if closeErr != nil {
		stopProf() // flush profiles: os.Exit skips deferred calls
		os.Exit(1)
	}
}

// printWALStats writes one line per durable queue, in id order, with its
// log's work since startup. It runs after CloseQueues, so the counts
// include each queue's final snapshot.
func printWALStats(wals map[string]*durable.Queue) {
	ids := make([]string, 0, len(wals))
	for id := range wals {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ws := wals[id].Stats()
		fmt.Fprintf(os.Stderr, "pqd: wal %s: records=%d fsyncs=%d snapshots=%d\n",
			id, ws.Records, ws.Fsyncs, ws.Snapshots)
	}
}

// printTelemetry writes the nonzero counters in the pqbench table format:
// whatever the served queues incremented.
func printTelemetry(snap telemetry.Snapshot) {
	if snap.Zero() {
		fmt.Fprintln(os.Stderr, "pqd: telemetry: no events recorded")
		return
	}
	fmt.Fprintln(os.Stderr, "pqd: telemetry counters:")
	for c := telemetry.Counter(0); c < telemetry.NumCounters; c++ {
		if v := snap.Counts[c]; v != 0 {
			fmt.Fprintf(os.Stderr, "  %-22s %12d  %s\n", c.Name(), v, c.Help())
		}
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqd:", err)
		os.Exit(1)
	}
}
