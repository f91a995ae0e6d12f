package main

import (
	"fmt"
	"os"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cpq/internal/durable"
	"cpq/internal/keys"
	"cpq/internal/netpq"
	"cpq/internal/pq"
	"cpq/internal/rng"
	"cpq/internal/stats"
	mix "cpq/internal/workload"
)

// path is the stack a workload's requests cross.
type path int

const (
	inProcess     path = iota // the load goroutines call the queue directly
	socket                    // connections to a netpq.Server on 127.0.0.1
	durableSocket             // socket, serving the queue through durable.Wrap over kv.OpenMmap
)

// workloadSpec is one set of inputs: the queue under test, the operation
// mix, the key distribution and the stack the requests cross. README.md
// records why each one is in the benchmark.
type workloadSpec struct {
	name  string
	queue string            // registry id of the queue under test
	split bool              // worker 0 only inserts, worker 1 only deletes; otherwise a uniform 50/50 mix
	keys  keys.Distribution // key distribution of inserts and prefill
	path  path
}

var workloads = []workloadSpec{
	{"fig4a", "multiq-s4-b8", false, keys.Uniform32, inProcess},
	{"split-asc", "multiq-s4-b8", true, keys.Ascending, inProcess},
	{"net", "multiq-s4-b8", false, keys.Uniform32, socket},
	{"net-durable", "multiq-s4-b8", false, keys.Uniform32, durableSocket},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

func (w workloadSpec) mix() mix.Kind {
	if w.split {
		return mix.Split
	}
	return mix.Uniform
}

const (
	workers       = 2       // load goroutines or connections; the only load, from one process
	batch         = 8       // items per InsertN/DeleteMinN call and per request frame
	window        = 32      // frames in flight per connection: fill to 32, drain to 16, as pqload does
	sampleEvery   = 16      // latency and span sampling period, in calls or frames
	instances     = 4       // queues (or servers) set up and measured one after another per run
	rounds        = 4       // rounds per instance; the metrics are medians over all rounds but the first
	snapshotEvery = 20_000  // durable snapshot cadence in logged records: several per instance
	segmentBytes  = 1 << 20 // WAL segment size and mmap preallocation unit
)

// Connection ids of the item values (see itemValue). Load generators use
// 1..workers; the prefill and the crashed-store fixture use their own.
const (
	prefillConn = 0xff00
	fixtureConn = 0xfffe
)

// sizes holds the item counts of a run; the smoke test shrinks them.
type sizes struct {
	prefill    int // in-process prefill (the paper's 10^6)
	netPrefill int // items inserted through the socket before measuring
	snapped    int // crashed-store items covered by a snapshot
	tail       int // crashed-store items only the WAL tail holds
	quality    int // rank-error run: prefill, and ops per thread
}

var fullSizes = sizes{prefill: 1_000_000, netPrefill: 100_000, snapped: 200_000, tail: 100_000, quality: 100_000}

// config is one run's settings.
type config struct {
	seed    uint64
	measure time.Duration // length of the measured phase
	trace   bool
	spans   string // span file of a traced run
	dir     string // scratch directory for stores
	sizes   sizes
	fixture *fixture // net-durable: the crashed store of the current phase
	// decorate, when set, wraps every queue under test; tests plant
	// faults through it.
	decorate func(pq.Queue) pq.Queue
}

func (c config) queue(q pq.Queue) pq.Queue {
	if c.decorate == nil {
		return q
	}
	return c.decorate(q)
}

// itemValue is the value of item i of a batch: the connection (or load
// goroutine) that inserted it, the batch's request number and the index.
// Values are unique within a run, and the traced wrappers read the
// connection and request back to join their spans to the request.
func itemValue(conn, req uint64, i int) uint64 {
	return conn<<48 | (req&(1<<37-1))<<11 | uint64(i)
}

// splitValue inverts itemValue.
func splitValue(v uint64) (conn, req uint64) {
	return v >> 48, v >> 11 & (1<<37 - 1)
}

// fillBatch draws a batch of fresh items.
func fillBatch(kvs []pq.KV, gen *keys.Generator, conn, req uint64) {
	for i := range kvs {
		kvs[i] = pq.KV{Key: gen.Next(), Value: itemValue(conn, req, i)}
	}
}

// ledger is an additive hash over (key, value) pairs and their count:
// two multisets of items are equal, up to a hash collision, exactly when
// their ledgers are.
type ledger struct {
	n, sum uint64
}

func (l *ledger) add(kvs []pq.KV) {
	for _, kv := range kvs {
		s := kv.Key*0x9e3779b97f4a7c15 ^ kv.Value
		l.n++
		l.sum += rng.SplitMix64(&s)
	}
}

func (l ledger) plus(o ledger) ledger { return ledger{l.n + o.n, l.sum + o.sum} }

// loader is one load goroutine or connection. Its inputs continue from
// round to round; only the goroutine (and connection) is fresh.
type loader struct {
	moved atomic.Uint64 // items moved so far; the split inserter reads the deleter's
	_     [56]byte

	conn   uint64 // connection id in item values
	gen    *keys.Generator
	policy mix.Policy
	kvs    []pq.KV
	h      pq.Handle // in-process: kept across rounds
	req    uint64    // request number of the next call or frame

	ins, del  ledger
	attempted uint64      // items offered to inserts plus items requested by deletes
	failed    uint64      // items of requests answered with an error
	lat       [2][]uint32 // sampled request latencies, ns, of inserts and of deletes
	err       error
}

func newLoaders(w workloadSpec, seed uint64) []*loader {
	ls := make([]*loader, workers)
	for id := range ls {
		// The key generator and the op policy share one generator, as in
		// the in-process harness.
		r := rng.New(seed + uint64(id+1)*0x6a09e667f3bcc909)
		ls[id] = &loader{
			conn:   uint64(id + 1),
			gen:    keys.NewGenerator(w.keys, r),
			policy: mix.ForWorker(w.mix(), id, workers, 0.5, r),
			kvs:    make([]pq.KV, batch),
		}
	}
	return ls
}

func totals(ls []*loader) (ins, del ledger) {
	for _, l := range ls {
		ins = ins.plus(l.ins)
		del = del.plus(l.del)
	}
	return ins, del
}

// phase is one pass of a workload: the set-ups, measured rounds and
// checks of its instances.
type phase struct {
	setup      []time.Duration
	rates      []float64    // items moved per second, per round
	p50s, p99s [2][]float64 // latency percentiles, ns, of inserts and of deletes, per round
	samples    [2]int       // latency samples of inserts and of deletes
	moved      uint64       // items moved while measuring
	perLoader  [workers]uint64
	elapsed    time.Duration // measured time
	attempted  uint64
	failed     uint64
	problems   []string
	proc       procStats // process counters over the measured time
	memPeaks   []float64 // MiB the runtime held from the OS at most, per instance's measured rounds

	recovered   uint64        // net-durable: items recovered at set-up
	recoverTime time.Duration // net-durable: store open plus durable.Wrap
	server      netpq.Stats   // socket paths: server counters over the measured time
	wal         durable.Stats // net-durable: log counters over the measured time
}

func (ph *phase) fail(items uint64, format string, args ...any) {
	ph.failed += max(items, 1)
	ph.problems = append(ph.problems, fmt.Sprintf(format, args...))
}

// conserve checks that the items that went in are the items that came out.
func (ph *phase) conserve(what string, in, out ledger) {
	if in == out {
		return
	}
	lost := in.n - out.n
	if out.n > in.n {
		lost = out.n - in.n
	}
	ph.fail(lost, "%s: %d items in, %d out (hash %#x vs %#x)", what, in.n, out.n, in.sum, out.sum)
}

// timeSetup times one set-up. Before it, the garbage of the previous one
// is collected and returned to the OS, so every set-up starts from the
// same heap.
func (ph *phase) timeSetup(setup func() error) error {
	debug.FreeOSMemory()
	t0 := time.Now()
	if err := setup(); err != nil {
		return err
	}
	ph.setup = append(ph.setup, time.Since(t0))
	return nil
}

// runPhase sets up and measures k instances of w one after another, each
// for d/k, with inputs derived from cfg.seed and the instance number. The
// crashed store net-durable recovers is built once, untimed, from cfg.seed.
// Throughput differs from one instance of a queue to the next by more than
// it varies within one, so a run samples several instances and reports
// medians over all their rounds.
func runPhase(w workloadSpec, cfg config, tr *tracer, k int, d time.Duration) (*phase, error) {
	run := runSocket
	if w.path == inProcess {
		run = runInProcess
	}
	ph := &phase{}
	if w.path == durableSocket {
		dir, err := os.MkdirTemp(cfg.dir, "fixture-")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
		items, err := buildCrashedStore(w.queue, dir, cfg.sizes, cfg.seed)
		if err != nil {
			return nil, fmt.Errorf("building the crashed store: %w", err)
		}
		cfg.fixture = &fixture{dir, items}
	}
	for i := 0; i < k; i++ {
		seed := cfg.seed + uint64(i)*0x9e3779b97f4a7c15
		if err := run(ph, w, cfg, seed, tr, d/time.Duration(k)); err != nil {
			return nil, err
		}
		tr.collect()
	}
	return ph, nil
}

// measure runs one instance's measured time d in rounds. Each round starts
// a fresh goroutine per loader running body until the round ends, waits
// for them, and then calls settle, if set, outside the round's time. The
// first round warms the instance up: a freshly prefilled queue is at its
// slowest while its keys move away from the prefill's distribution, so
// that round's rate and latencies are not recorded.
func (ph *phase) measure(d time.Duration, ls []*loader, tr *tracer, body func(l *loader, stop *atomic.Bool), settle func() error) {
	debug.FreeOSMemory()
	p0 := readProc()
	memPeak := watchMemory()
	tr.start()
	began := time.Now()
	var total uint64
	marks := make([][2]int, len(ls))
	for i := 1; i <= rounds; i++ {
		t0 := time.Now()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for j, l := range ls {
			marks[j] = [2]int{len(l.lat[0]), len(l.lat[1])}
			if l.err != nil {
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				body(l, &stop)
			}()
		}
		time.Sleep(time.Until(began.Add(d * time.Duration(i) / rounds)))
		stop.Store(true)
		wg.Wait()
		t1 := time.Now()

		var moved uint64
		for _, l := range ls {
			moved += l.moved.Load()
		}
		if i > 1 {
			ph.record(ls, marks, float64(moved-total)/t1.Sub(t0).Seconds())
		}
		total = moved
		if settle != nil {
			if err := settle(); err != nil {
				ph.fail(0, "between rounds: %v", err)
				break
			}
		}
	}
	tr.stop()
	ph.memPeaks = append(ph.memPeaks, memPeak())
	ph.elapsed += time.Since(began)
	ph.proc = ph.proc.plus(readProc().minus(p0))
	ph.moved += total
	for j, l := range ls {
		ph.perLoader[j] += l.moved.Load()
		ph.attempted += l.attempted
		if l.failed > 0 {
			ph.fail(l.failed, "%d items refused with error frames", l.failed)
		}
		if l.err != nil {
			ph.fail(batch, "load: %v", l.err)
		}
	}
}

// record adds one round: its rate, and the percentiles of the latency
// samples the loaders took since marks.
func (ph *phase) record(ls []*loader, marks [][2]int, rate float64) {
	ph.rates = append(ph.rates, rate)
	for op := range ph.p50s {
		var lat []float64
		for j, l := range ls {
			for _, ns := range l.lat[op][marks[j][op]:] {
				lat = append(lat, float64(ns))
			}
		}
		if len(lat) > 0 {
			ph.p50s[op] = append(ph.p50s[op], stats.Percentile(lat, 50))
			ph.p99s[op] = append(ph.p99s[op], stats.Percentile(lat, 99))
			ph.samples[op] += len(lat)
		}
	}
}

func walStats(dq *durable.Queue) durable.Stats {
	if dq == nil {
		return durable.Stats{}
	}
	return dq.Stats()
}

// addWAL adds the log counters that moved from b to a.
func (ph *phase) addWAL(a, b durable.Stats) {
	ph.wal.Records += a.Records - b.Records
	ph.wal.Fsyncs += a.Fsyncs - b.Fsyncs
	ph.wal.Snapshots += a.Snapshots - b.Snapshots
}

// addServer adds the server counters that moved from b to a.
func (ph *phase) addServer(a, b netpq.Stats) {
	ph.server.FramesIn += a.FramesIn - b.FramesIn
	ph.server.FramesOut += a.FramesOut - b.FramesOut
	ph.server.WriteStalls += a.WriteStalls - b.WriteStalls
	ph.server.Drops += a.Drops - b.Drops
}

// Latency samples are kept per operation: inserts and deletes cost
// different amounts, and a percentile over both mixed would sit between
// their modes, where it moves with every small shift of either.
const (
	opInsert = 0
	opDelete = 1
)

func opOf(op mix.Op) int {
	if op == mix.Insert {
		return opInsert
	}
	return opDelete
}
