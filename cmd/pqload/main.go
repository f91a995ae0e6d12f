// Command pqload is the load generator for pqd: it drives N client
// connections of pipelined, batched requests against a server and
// prints one table row per queue: throughput in MOps/s with a 95% CI,
// allocations per op and sampled request round-trip latency.
//
// With -addr pqload measures a running server; with the default empty
// -addr it self-hosts an in-process loopback server, which is the
// one-command configuration used by `make pqd-smoke` and the overhead
// table in EXPERIMENTS.md. Each repetition opens a fresh queue instance
// ("spec#repN") on the same server, so reps never inherit a predecessor's
// leftover items and the server needs no restart between cells.
//
// The measured loop mirrors the in-process harness (fig-4a cell):
// prefill through the socket, then each connection alternates batched
// inserts and deletes per its workload policy, keeping -pipeline
// requests in flight. Ops accounting follows the harness convention —
// a batch of n counts as n ops, and a short DeleteMinN tail counts as
// n ops of which the missing items were empty deletes — so socket
// MOps/s is comparable to in-process MOps/s at the same batch width.
//
//	pqload                        # self-host, fig-4a cell
//	pqload -addr host:9410 -queues klsm4096 -conns 8 -batch 8
//	pqload -smoke                 # tiny budget, nonzero-ops gate (make pqd-smoke)
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"cpq"
	"cpq/internal/cli"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/stats"
	"cpq/internal/workload"
)

func main() {
	var (
		addr       = flag.String("addr", "", "pqd server address (empty = self-host an in-process loopback server)")
		queuesF    = flag.String("queues", "multiq-s4-b8,klsm4096", "queue specs to measure (fig-4a cell queues)")
		conns      = flag.Int("conns", 8, "client connections (the socket analogue of worker threads)")
		batch      = flag.Int("batch", 8, "ops per request frame (InsertN/DeleteMinN width)")
		pipeline   = flag.Int("pipeline", 32, "requests kept in flight per connection (half the window is drained per refill, so depth amortizes write syscalls)")
		duration   = flag.Duration("duration", time.Second, "measurement duration per rep")
		reps       = flag.Int("reps", 3, "repetitions per cell (interleaved across queues)")
		prefill    = flag.Int("prefill", 100_000, "items inserted through the socket before measuring")
		workloadF  = flag.String("workload", "uniform", "operation mix: uniform, split, alternating")
		keysF      = flag.String("keys", "uniform", "key distribution: uniform32/16/8, ascending, descending, holdasc, holddesc")
		insertFrac = flag.Float64("insert-frac", 0.5, "insert probability for the uniform workload")
		seed       = flag.Uint64("seed", 0, "base RNG seed (0 = default)")
		smoke      = flag.Bool("smoke", false, "CI smoke: tiny budget, one rep, nonzero-ops gate")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measured loops")
	)
	flag.Parse()

	if *smoke {
		*duration, *reps, *prefill, *conns = 300*time.Millisecond, 1, 2000, 4
		*queuesF = "multiq-s4-b8"
	}
	queueSpecs, err := cli.ParseQueues(*queuesF, nil)
	if err == nil {
		err = cli.CheckBatch("batch", *batch)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqload:", err)
		os.Exit(2)
	}
	if *batch > netpq.MaxBatch {
		fmt.Fprintf(os.Stderr, "pqload: batch %d above protocol max %d\n", *batch, netpq.MaxBatch)
		os.Exit(1)
	}
	if *conns < 1 || *pipeline < 1 {
		fmt.Fprintln(os.Stderr, "pqload: -conns and -pipeline must be >= 1")
		os.Exit(1)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		exitOn(err)
		exitOn(pprof.StartCPUProfile(f))
		defer pprof.StopCPUProfile()
	}
	wkind, err := workload.Parse(*workloadF)
	exitOn(err)
	kdist, err := keys.Parse(*keysF)
	exitOn(err)

	target := *addr
	if target == "" {
		srv, ln := selfHost()
		defer srv.Close()
		target = ln.Addr().String()
		fmt.Fprintf(os.Stderr, "pqload: self-hosted pqd on %s\n", target)
	}

	mops := map[string][]float64{}
	allocs := map[string][]float64{}
	ops := map[string]uint64{}
	var rtts = map[string][]float64{} // sampled request latencies, µs

	for rep := 0; rep < *reps; rep++ {
		for _, spec := range queueSpecs {
			// A fresh instance per (spec, rep): reps must not inherit the
			// previous rep's surviving items.
			queueID := fmt.Sprintf("%s#rep%d", spec, rep)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			res := runCell(cellConfig{
				addr: target, queueID: queueID,
				conns: *conns, batch: *batch, pipeline: *pipeline,
				duration: *duration, prefill: *prefill,
				workload: wkind, keyDist: kdist, insertFrac: *insertFrac,
				seed: *seed + uint64(rep),
			})
			runtime.ReadMemStats(&m1)
			mops[spec] = append(mops[spec], res.mops)
			if res.ops > 0 {
				allocs[spec] = append(allocs[spec], float64(m1.Mallocs-m0.Mallocs)/float64(res.ops))
			}
			ops[spec] += res.ops
			rtts[spec] = append(rtts[spec], res.rttUS...)
			fmt.Fprintf(os.Stderr, "pqload: rep %d/%d net:%s conns=%d batch=%d: %.3f MOps/s\n",
				rep+1, *reps, spec, *conns, *batch, res.mops)
		}
	}

	fmt.Printf("# net addr=%s conns=%d batch=%d pipeline=%d workload=%s keys=%s prefill=%d duration=%v reps=%d\n",
		target, *conns, *batch, *pipeline, wkind, kdist, *prefill, *duration, *reps)
	var table cli.Table
	table.AddRow("queue", "MOps/s", "allocs/op", "rtt_p50_us", "rtt_p99_us")
	var total uint64
	for _, spec := range queueSpecs {
		s := stats.Summarize(mops[spec])
		var a float64
		if as := allocs[spec]; len(as) > 0 {
			a = stats.Mean(as)
		}
		p50, p99 := percentiles(rtts[spec])
		table.AddRow(spec, fmt.Sprintf("%.3f ±%.3f", s.Mean, s.CI95),
			fmt.Sprintf("%.3f", a), fmt.Sprintf("%.0f", p50), fmt.Sprintf("%.0f", p99))
		total += ops[spec]
	}
	fmt.Print(table.String())
	fmt.Println("# MOps/s mean ±95% CI over reps; allocs/op counts the whole process (client and server when self-hosted); rtt is sampled request latency through the pipeline")

	// Smoke gate: the whole point of `make pqd-smoke` is that a built
	// server, a built client and a real socket moved a nonzero number of
	// operations end to end.
	if *smoke && total == 0 {
		fmt.Fprintln(os.Stderr, "pqload: smoke moved zero ops")
		os.Exit(1)
	}
}

// selfHost starts an in-process pqd server on an ephemeral loopback port.
func selfHost() (*netpq.Server, net.Listener) {
	srv, err := netpq.NewServer(netpq.Options{
		NewQueue: func(spec, _ string, handles int) (pq.Queue, error) {
			return cpq.NewQueue(spec, cpq.Options{Threads: handles})
		},
	})
	exitOn(err)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	exitOn(err)
	go srv.Serve(ln)
	return srv, ln
}

// cellConfig is one (queue instance, rep) measurement.
type cellConfig struct {
	addr, queueID          string
	conns, batch, pipeline int
	duration               time.Duration
	prefill                int
	workload               workload.Kind
	keyDist                keys.Distribution
	insertFrac             float64
	seed                   uint64
}

type cellResultRaw struct {
	ops   uint64
	mops  float64
	rttUS []float64
}

// runCell prefills the queue instance through one connection, then runs
// conns workers of pipelined batched requests for the configured
// duration and returns completed ops and sampled request latencies.
func runCell(cfg cellConfig) cellResultRaw {
	// Prefill through the socket: the servers sees exactly what a real
	// client population would have inserted.
	pc, err := netpq.Dial(cfg.addr, cfg.queueID)
	exitOn(err)
	pg := keys.NewGenerator(cfg.keyDist, rng.New(cfg.seed^0x9e3779b97f4a7c15))
	kvs := make([]pq.KV, 0, netpq.MaxBatch)
	for left := cfg.prefill; left > 0; {
		n := netpq.MaxBatch
		if n > left {
			n = left
		}
		kvs = kvs[:0]
		for i := 0; i < n; i++ {
			kvs = append(kvs, pq.KV{Key: pg.Next(), Value: uint64(i)})
		}
		exitOn(pc.InsertN(kvs))
		left -= n
	}
	pc.Close()

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		totalOps uint64
		rttUS    []float64
	)
	start := time.Now()
	deadline := start.Add(cfg.duration)
	for w := 0; w < cfg.conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ops, lats := runWorker(cfg, w, deadline)
			mu.Lock()
			totalOps += ops
			rttUS = append(rttUS, lats...)
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	return cellResultRaw{
		ops:   totalOps,
		mops:  float64(totalOps) / 1e6 / elapsed.Seconds(),
		rttUS: rttUS,
	}
}

// runWorker is one connection's measured loop: choose an op per batch
// from the workload policy, keep cfg.pipeline request frames in flight,
// count each completed frame as batch ops (harness accounting). Request
// latency is sampled every rttSampleEvery completions, timed from the
// frame's enqueue to its (FIFO-ordered) response.
func runWorker(cfg cellConfig, w int, deadline time.Time) (ops uint64, rttUS []float64) {
	const rttSampleEvery = 64

	c, err := netpq.Dial(cfg.addr, cfg.queueID)
	exitOn(err)
	defer c.Close()

	r := rng.New(cfg.seed + uint64(w)*0x6a09e667f3bcc909)
	policy := workload.ForWorker(cfg.workload, w, cfg.conns, cfg.insertFrac, r)
	gen := keys.NewGenerator(cfg.keyDist, r)
	kvs := make([]pq.KV, cfg.batch)

	// sendTimes is a FIFO ring of request enqueue times, pipeline deep;
	// responses are strictly FIFO so head-of-ring matches the next Recv.
	sendTimes := make([]time.Time, cfg.pipeline)
	head, tail, inFlight := 0, 0, 0
	sent, done := 0, 0

	issue := func() bool {
		var err error
		if policy.Next() == workload.Insert {
			for i := range kvs {
				kvs[i] = pq.KV{Key: gen.Next(), Value: uint64(w)<<48 | uint64(sent)}
			}
			_, err = c.StartInsertN(kvs)
		} else {
			_, err = c.StartDeleteMinN(cfg.batch)
		}
		exitOn(err)
		sendTimes[tail] = time.Now()
		tail = (tail + 1) % cfg.pipeline
		sent++
		inFlight++
		return true
	}
	recvOne := func() {
		resp, err := c.Recv()
		exitOn(err)
		if resp.Err != nil {
			exitOn(fmt.Errorf("net:%s: %w", cfg.queueID, resp.Err))
		}
		t0 := sendTimes[head]
		head = (head + 1) % cfg.pipeline
		inFlight--
		done++
		if done%rttSampleEvery == 0 {
			rttUS = append(rttUS, float64(time.Since(t0).Microseconds()))
		}
		// Harness accounting: each frame is batch ops; a short delete
		// response still counts as batch ops (the tail were empty deletes).
		ops += uint64(cfg.batch)
		if len(resp.KVs) > 0 {
			gen.Observe(resp.KVs[len(resp.KVs)-1].Key)
		}
	}

	// Issue a full window, then drain half of it before refilling: the
	// client's buffered writer then flushes pipeline/2 request frames per
	// syscall instead of one (a drain-one/issue-one loop would flush a
	// single frame on every Recv), and the server's bursts coalesce the
	// same way on the response side.
	low := cfg.pipeline / 2
	for time.Now().Before(deadline) {
		for inFlight < cfg.pipeline {
			issue()
		}
		for inFlight > low {
			recvOne()
		}
	}
	for inFlight > 0 {
		recvOne()
	}
	return ops, rttUS
}

// percentiles returns the p50 and p99 of xs in place-sorted order; zeros
// when no samples were taken (very short runs).
func percentiles(xs []float64) (p50, p99 float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	at := func(q float64) float64 {
		i := int(q * float64(len(xs)-1))
		return xs[i]
	}
	return at(0.50), at(0.99)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "pqload:", err)
		os.Exit(1)
	}
}
