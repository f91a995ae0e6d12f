package main

import (
	"fmt"
	"io"
	"time"

	"cpq"
	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/telemetry"
)

// untraced measures the bare program and reports the end-to-end metrics.
func untraced(w workloadSpec, cfg config, stderr io.Writer) (*result, error) {
	ph, err := runPhase(w, cfg, nil, instances, cfg.measure)
	if err != nil {
		return nil, err
	}
	res := &result{}
	res.absorb(ph)
	setup := make([]float64, len(ph.setup))
	for i, d := range ph.setup {
		setup[i] = d.Seconds()
	}
	res.add("throughput_mops", median(ph.rates)/1e6, "Mitems/s")
	res.add("insert_p50_us", median(ph.p50s[opInsert])/1e3, "us")
	res.add("delete_p50_us", median(ph.p50s[opDelete])/1e3, "us")
	res.add("setup_s", median(setup), "s")
	res.add("peak_mem_mb", median(ph.memPeaks), "MiB")
	res.add("ops_ok_frac", 1-ratio(float64(res.failed), float64(max(res.attempted, 1))), "fraction")
	fmt.Fprintf(stderr, "bench: %s seed %d: %d items moved in %v (%v per load goroutine), %v latency samples, set-ups %v\n",
		w.name, cfg.seed, ph.moved, ph.elapsed.Round(time.Millisecond), ph.perLoader, ph.samples, ph.setup)
	fmt.Fprintf(stderr, "bench: rounds: Mitems/s %.4g\n", scaled(ph.rates, 1e-6))
	for op, name := range []string{"insert", "delete"} {
		fmt.Fprintf(stderr, "bench: rounds: %s p50 us %.4g, p99 us %.4g\n", name, scaled(ph.p50s[op], 1e-3), scaled(ph.p99s[op], 1e-3))
	}
	return res, nil
}

// referenceCells are the queues a traced run of a workload also measures
// on that workload's shape: linden on fig4a, where it collapses on two
// cores, and klsm4096 on split-asc, where the paper ranks it below the
// MultiQueue. Their per-layer metrics read 0 on the other workloads.
var referenceCells = map[string]workloadSpec{
	"fig4a":     {name: "linden", queue: "linden", keys: keys.Uniform32, path: inProcess},
	"split-asc": {name: "klsm4096", queue: "klsm4096", split: true, keys: keys.Ascending, path: inProcess},
}

// traced runs the workload untraced (the base of trace.overhead and of the
// tail latencies), its reference cell and a rank-error run with
// queue-internal counters on, then the traced pass, and reports the
// per-layer metrics. The traced pass takes half the measured time, and the
// untraced pass and the cell a quarter each, so a traced run takes about
// as long as an untraced one.
func traced(w workloadSpec, cfg config, stderr io.Writer) (*result, error) {
	res := &result{}
	base, err := runPhase(w, cfg, nil, instances, cfg.measure/4)
	if err != nil {
		return nil, err
	}
	res.absorb(base)
	c := layerCells{base: base, rss: peakRSSMiB()} // the getrusage peak of the untraced pass, set-ups included

	// Queue-internal counters must be on before the queues they count exist.
	telemetry.Enabled = true
	defer func() { telemetry.Enabled = false }()

	if cell, ok := referenceCells[w.name]; ok {
		before := telemetry.Capture()
		if c.cell, err = runPhase(cell, cfg, nil, 1, cfg.measure/4); err != nil {
			return nil, err
		}
		c.cellQueue, c.cellTel = cell.queue, telemetry.Capture().Diff(before)
		res.absorb(c.cell)
	}

	c.rank, c.violations = rankError(w, cfg)
	if c.violations > 0 {
		res.problems = append(res.problems, fmt.Sprintf("%d deletions above %s's claimed rank bound", c.violations, w.queue))
	}

	tr := newTracer()
	ph, err := runPhase(w, cfg, tr, instances, cfg.measure/2)
	if err != nil {
		return nil, err
	}
	res.absorb(ph)
	perLayer(res, ph, tr, c)
	if err := tr.writeSpans(cfg.spans); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(stderr, "bench: %s seed %d: traced %d items moved in %v, %d spans (%d dropped) in %s\n",
		w.name, cfg.seed, ph.moved, ph.elapsed.Round(time.Millisecond), len(tr.spans), tr.dropped, cfg.spans)
	return res, nil
}

// rankError runs the rank-error benchmark on the workload's queue and
// shape and judges it against the queue's claimed bound.
func rankError(w workloadSpec, cfg config) (mean float64, violations uint64) {
	r := quality.Run(quality.Config{
		NewQueue: func(threads int) pq.Queue {
			q, err := cpq.NewQueue(w.queue, cpq.Options{Threads: threads})
			if err != nil {
				panic(err) // the workload table names registry queues only
			}
			return q
		},
		Threads:      workers,
		OpsPerThread: cfg.sizes.quality,
		Workload:     w.mix(),
		KeyDist:      w.keys,
		Prefill:      cfg.sizes.quality,
		OpBatch:      batch,
		Seed:         cfg.seed,
	})
	// The prefill handle counts towards P with the workers.
	bound, kind := quality.ClaimedBound(w.queue, workers+1)
	if kind != quality.BoundNone {
		violations = quality.ViolationsAbove(r, bound)
	}
	return r.MeanRank, violations
}

// layerCells are the per-layer inputs measured outside the traced pass.
type layerCells struct {
	base       *phase
	rss        float64            // getrusage peak, MiB, when the untraced pass ended
	cell       *phase             // the workload's reference cell, if it has one
	cellQueue  string             // the cell's queue
	cellTel    telemetry.Snapshot // queue-internal counters of the cell
	rank       float64
	violations uint64
}

// cellMops is the throughput of the reference cell of queue q, 0 when the
// workload has none.
func (c layerCells) cellMops(q string) float64 {
	if c.cell == nil || c.cellQueue != q {
		return 0
	}
	return median(c.cell.rates) / 1e6
}

// perLayer adds the per-layer metrics of a traced pass. A layer the
// workload does not cross reports 0. BENCHMARK.json lists the same names
// and units, and README.md what each one should move.
func perLayer(res *result, ph *phase, tr *tracer, c layerCells) {
	moved := float64(ph.moved)

	// The innermost queue wrapper is the queue layer; on the socket paths
	// the outermost one is what the server calls.
	queue, outer := spanQueue, -1
	switch {
	case tr.handles[spanDurableInner] > 0:
		queue, outer = spanDurableInner, spanDurableCall
	case tr.handles[spanServerQueue] > 0:
		queue, outer = spanServerQueue, spanServerQueue
	}
	qs, handles := tr.calls[queue], tr.handles[queue]
	var ss callStats
	if outer >= 0 {
		ss, handles = tr.calls[outer], tr.handles[outer]
	}
	res.add("queue.insert_ns", ratio(float64(qs.insNs), float64(qs.insTimed)), "ns/call")
	res.add("queue.delete_ns", ratio(float64(qs.delNs), float64(qs.delTimed)), "ns/call")
	res.add("queue.delete_hit", ratio(float64(qs.returned), float64(qs.requested)), "fraction")
	res.add("queue.stick_reset_per_op", ratio(float64(tr.tel.Counts[telemetry.MQStickReset]), moved), "1/item")
	res.add("queue.rank_error_mean", c.rank, "rank")
	res.add("queue.bound_violations", float64(c.violations), "count")
	res.add("queue.mops.linden", c.cellMops("linden"), "Mitems/s")
	res.add("queue.mops.klsm4096", c.cellMops("klsm4096"), "Mitems/s")
	var takeFail float64
	if c.cellQueue == "klsm4096" {
		takeFail = ratio(float64(c.cellTel.Counts[telemetry.CASItemTakeFail]), float64(c.cell.moved))
	}
	res.add("queue.take_fail_per_op.klsm4096", takeFail, "1/item")
	res.add("pool.handles_created", float64(handles)/instances, "count")

	// Tail latency as the caller sees it, from the untraced pass.
	res.add("client.insert_p99_us", median(c.base.p99s[opInsert])/1e3, "us")
	res.add("client.delete_p99_us", median(c.base.p99s[opDelete])/1e3, "us")
	cl, sv := &tr.client, &tr.server
	res.add("client.encode_ns", ratio(float64(tr.encodeNs.Load()), float64(tr.encodeN.Load())), "ns/frame")
	res.add("client.recv_ns", ratio(float64(tr.recvNs.Load()), float64(tr.recvN.Load())), "ns/frame")
	res.add("client.frames_per_write", ratio(float64(ph.server.FramesIn), float64(cl.writes.Load())), "frames/write")
	res.add("server.reads_per_frame", ratio(float64(sv.reads.Load()), float64(ph.server.FramesIn)), "reads/frame")
	res.add("server.frames_per_write", ratio(float64(ph.server.FramesOut), float64(sv.writes.Load())), "frames/write")
	res.add("server.read_ns_per_frame", ratio(float64(sv.readNs.Load()), float64(ph.server.FramesIn)), "ns/frame")
	res.add("server.write_ns_per_frame", ratio(float64(sv.writeNs.Load()), float64(ph.server.FramesOut)), "ns/frame")
	res.add("server.queue_ns", ratio(float64(ss.insNs+ss.delNs), float64(ss.insTimed+ss.delTimed)), "ns/call")
	res.add("server.write_stalls", float64(ph.server.WriteStalls), "count")
	res.add("server.drops", float64(ph.server.Drops), "count")
	res.add("net.bytes_per_op", ratio(float64(sv.readBytes.Load()+sv.writeBytes.Load()), moved), "B/item")

	var ds, is callStats
	if outer == spanDurableCall {
		ds, is = ss, qs
	}
	res.add("durable.call_ns.p50", nsPercentile(ds.ns, 50), "ns/call")
	res.add("durable.call_ns.p99", nsPercentile(ds.ns, 99), "ns/call")
	res.add("durable.inner_ns", ratio(float64(is.insNs+is.delNs), float64(is.insTimed+is.delTimed)), "ns/call")
	res.add("durable.records_per_fsync", ratio(float64(ph.wal.Records), float64(ph.wal.Fsyncs)), "records/fsync")
	res.add("durable.snapshots", float64(ph.wal.Snapshots), "count")

	st := &tr.kv
	res.add("kv.sync_ns.p50", nsPercentile(st.syncNs, 50), "ns/sync")
	res.add("kv.sync_ns.p99", nsPercentile(st.syncNs, 99), "ns/sync")
	res.add("kv.append_ns", ratio(float64(st.appendNs), float64(st.appends)), "ns/call")
	res.add("kv.update_ns.p99", nsPercentile(st.updateNs, 99), "ns/call")
	res.add("kv.syncs_per_op", ratio(float64(len(st.syncNs)), moved), "1/item")
	res.add("kv.bytes_per_op", ratio(float64(st.bytes), moved), "B/item")
	res.add("recover.items_per_s", ratio(float64(ph.recovered), ph.recoverTime.Seconds()), "items/s")

	res.add("process.peak_rss_mb", c.rss, "MiB")
	res.add("process.cpu_ns_per_op", ratio(float64(ph.proc.cpu), moved), "ns/item")
	res.add("process.gc_cpu_frac", ratio(ph.proc.gcCPU, ph.proc.totalCPU), "fraction")
	res.add("process.allocs_per_op", ratio(float64(ph.proc.allocs), moved), "allocs/item")

	res.add("trace.overhead", 1-ratio(median(ph.rates), median(c.base.rates)), "fraction")
	res.add("trace.spans", float64(len(tr.spans)), "count")
	res.add("trace.self_ns.client.request", tr.selfNs(spanClientRequest), "ns/span")
	res.add("trace.self_ns.durable.call", tr.selfNs(spanDurableCall), "ns/span")
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
