package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cpq"
	"cpq/internal/durable/kv"
	"cpq/internal/pq"
	"cpq/internal/quality"
	"cpq/internal/rng"
)

// smallSizes shrinks every item count so a run takes a fraction of a second.
var smallSizes = sizes{prefill: 10_000, netPrefill: 2_000, snapped: 2_000, tail: 1_000, quality: 2_000}

func smokeConfig(t *testing.T, trace bool) config {
	return config{
		seed:    7,
		measure: 200 * time.Millisecond,
		trace:   trace,
		spans:   filepath.Join(t.TempDir(), "spans.json"),
		dir:     t.TempDir(),
		sizes:   smallSizes,
	}
}

// metricsOf parses a result line and counts how often each metric name
// occurs in it.
func metricsOf(t *testing.T, line []byte) (resultLine, map[string]int) {
	t.Helper()
	r, err := parseResult(line)
	if err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	var raw struct {
		Metrics json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal(line, &raw); err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	dec := json.NewDecoder(bytes.NewReader(raw.Metrics))
	if _, err := dec.Token(); err != nil { // {
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		var v jsonValue
		if err := dec.Decode(&v); err != nil {
			t.Fatal(err)
		}
		counts[tok.(string)]++
	}
	return r, counts
}

// TestWorkloadsReportEveryMetric runs every workload untraced and traced
// with short phases and small inputs, and checks each result line against
// BENCHMARK.json: every metric it names is printed exactly once, with its
// unit, and nothing else is.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	spec, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var specNames []string
	for _, w := range spec.Workloads {
		specNames = append(specNames, w.Name)
	}
	if !slices.Equal(specNames, workloadNames()) {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", specNames, workloadNames())
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.name, trace), func(t *testing.T) {
				cfg := smokeConfig(t, trace)
				var out, errOut bytes.Buffer
				if code := execute(w, cfg, &out, &errOut); code != 0 {
					t.Fatalf("exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
				}
				r, counts := metricsOf(t, out.Bytes())
				if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
					t.Fatalf("correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
				}
				want := endToEnd
				if trace {
					want = perLayer
				}
				for name, unit := range want {
					if counts[name] != 1 {
						t.Errorf("%s printed %d times", name, counts[name])
					} else if got := r.Metrics[name].Unit; got != unit {
						t.Errorf("%s unit %q, BENCHMARK.json says %q", name, got, unit)
					}
				}
				for name := range counts {
					if _, ok := want[name]; !ok {
						t.Errorf("%s printed but not in BENCHMARK.json", name)
					}
				}
				if !trace {
					if v := r.Metrics["throughput_mops"].Value; v <= 0 {
						t.Errorf("throughput_mops = %v", v)
					}
					if v := r.Metrics["ops_ok_frac"].Value; v != 1 {
						t.Errorf("ops_ok_frac = %v on a correct run", v)
					}
					return
				}
				if w.path != inProcess && r.Metrics["server.reads_per_frame"].Value <= 0 {
					t.Error("traced socket run counted no server reads")
				}
				if fi, err := os.Stat(cfg.spans); err != nil || fi.Size() == 0 {
					t.Errorf("span file: %v", err)
				}
			})
		}
	}
}

// lossyQueue drops the first item ever inserted into it.
type lossyQueue struct {
	pq.Queue
	dropped atomic.Bool
}

func (q *lossyQueue) Handle() pq.Handle { return lossyHandle{q.Queue.Handle(), q} }

type lossyHandle struct {
	pq.Handle
	q *lossyQueue
}

func (h lossyHandle) InsertN(kvs []pq.KV) {
	if len(kvs) > 0 && h.q.dropped.CompareAndSwap(false, true) {
		kvs = kvs[1:]
	}
	pq.InsertN(h.Handle, kvs)
}

func (h lossyHandle) DeleteMinN(dst []pq.KV, n int) int { return pq.DeleteMinN(h.Handle, dst, n) }
func (h lossyHandle) Flush()                            { pq.Flush(h.Handle) }

// TestLostItemFailsTheRun plants a queue that loses one item: the run must
// print a result that says so and exit non-zero.
func TestLostItemFailsTheRun(t *testing.T) {
	w, _ := lookupWorkload("fig4a")
	cfg := smokeConfig(t, false)
	cfg.decorate = func(q pq.Queue) pq.Queue { return &lossyQueue{Queue: q} }
	var out, errOut bytes.Buffer
	if code := execute(w, cfg, &out, &errOut); code == 0 {
		t.Fatalf("a lost item exited 0\nstdout: %s", out.String())
	}
	r, _ := metricsOf(t, out.Bytes())
	if r.Correct || r.Failed == 0 || r.Metrics["ops_ok_frac"].Value >= 1 {
		t.Fatalf("correct=%v failed=%d attempted=%d ops_ok_frac=%v", r.Correct, r.Failed, r.Attempted, r.Metrics["ops_ok_frac"].Value)
	}
	if !strings.Contains(errOut.String(), "conservation") {
		t.Errorf("stderr does not name the failed check: %s", errOut.String())
	}
}

// drive runs a fixed single-threaded sequence of batch inserts and
// deletes on q, then drains it, and returns what came out in order.
func drive(t *testing.T, q pq.Queue) (deleted []pq.KV, in, out ledger) {
	t.Helper()
	h := q.Handle()
	r := rng.New(42)
	kvs := make([]pq.KV, batch)
	for req := uint64(0); req < 2000; req++ {
		if r.Uint64()%2 == 0 {
			for i := range kvs {
				kvs[i] = pq.KV{Key: r.Uint64() >> 16, Value: itemValue(1, req, i)}
			}
			in.add(kvs)
			pq.InsertN(h, kvs)
			continue
		}
		got := pq.DeleteMinN(h, kvs, batch)
		out.add(kvs[:got])
		deleted = append(deleted, kvs[:got]...)
	}
	pq.Flush(h)
	out = out.plus(drain(q))
	return deleted, in, out
}

// TestWrappedQueuesBehaveAsBare drives every registry queue bare and
// wrapped from the same inputs: strict queues must delete the same
// sequence, every queue must conserve items, and the wrapper must keep
// the pq.Grower capability of the queue it wraps.
func TestWrappedQueuesBehaveAsBare(t *testing.T) {
	tr := newTracer()
	tr.start()
	defer tr.stop()
	for _, name := range cpq.Names() {
		newQueue := func() pq.Queue {
			q, err := cpq.NewQueue(name, cpq.Options{Threads: 1})
			if err != nil {
				t.Fatal(err)
			}
			return q
		}
		bare, wrapped := newQueue(), tr.queue(newQueue(), spanQueue)
		a, aIn, aOut := drive(t, bare)
		b, bIn, bOut := drive(t, wrapped)
		if aIn != aOut || bIn != bOut {
			t.Errorf("%s: bare conserves %v, wrapped %v", name, aIn == aOut, bIn == bOut)
		}
		if _, kind := quality.ClaimedBound(name, 1); kind == quality.BoundStrict && !slices.Equal(a, b) {
			t.Errorf("%s: wrapped queue deleted a different sequence", name)
		}
		_, bareGrows := bare.(pq.Grower)
		if _, wrappedGrows := wrapped.(pq.Grower); bareGrows != wrappedGrows {
			t.Errorf("%s: Grower %v bare, %v wrapped", name, bareGrows, wrappedGrows)
		}
		pq.Close(bare)
		pq.Close(wrapped)
	}
}

// TestWrappedStoreKeepsContract runs the kv store-contract sequence
// through the traced store wrapper over each backend.
func TestWrappedStoreKeepsContract(t *testing.T) {
	tr := newTracer()
	tr.start()
	defer tr.stop()
	m, err := kv.OpenMmap(t.TempDir(), 1<<16)
	if err != nil {
		t.Fatal(err)
	}
	f, err := kv.OpenFile(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]kv.Store{"inmem": kv.NewInmem(), "file": f, "mmap": m} {
		t.Run(name, func(t *testing.T) {
			ws := tr.store(s)
			storeContract(t, ws)
			st := ws.(*tracedStore)
			if st.bytes != 16 || st.appends != 3 || len(st.syncNs) != 1 || len(st.updateNs) != 3 {
				t.Errorf("counted %d bytes, %d appends, %d syncs, %d updates; want 16, 3, 1, 3",
					st.bytes, st.appends, len(st.syncNs), len(st.updateNs))
			}
		})
	}
}

// storeContract is the kv package's store-contract sequence.
func storeContract(t *testing.T, s kv.Store) {
	if _, ok, err := s.Get("missing"); err != nil || ok {
		t.Fatalf("Get(missing) = ok=%v err=%v", ok, err)
	}
	if err := s.Append("wal/0001", []byte("abc")); err != nil {
		t.Fatal(err)
	}
	if err := s.Append("wal/0001", []byte("def")); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if v, ok, err := s.Get("wal/0001"); err != nil || !ok || string(v) != "abcdef" {
		t.Fatalf("Get after appends = %q ok=%v err=%v", v, ok, err)
	}
	err := s.Update(func(tx kv.Tx) error {
		if _, ok, _ := tx.Get("snap/0002"); ok {
			t.Error("tx.Get sees a key that was never written")
		}
		tx.Set("snap/0002", []byte("snapshot"))
		tx.Set("meta", []byte("m"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if v, ok, _ := s.Get("snap/0002"); !ok || string(v) != "snapshot" {
		t.Fatalf("Get(snap/0002) = %q ok=%v", v, ok)
	}
	wantErr := fmt.Errorf("boom")
	if err := s.Update(func(tx kv.Tx) error {
		tx.Set("ghost", []byte("x"))
		return wantErr
	}); err != wantErr {
		t.Fatalf("Update error = %v, want %v", err, wantErr)
	}
	if _, ok, _ := s.Get("ghost"); ok {
		t.Fatal("discarded batch left a key behind")
	}
	if err := s.Append("wal/0003", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if keys, err := s.List("wal/"); err != nil || !reflect.DeepEqual(keys, []string{"wal/0001", "wal/0003"}) {
		t.Fatalf("List(wal/) = %v, %v", keys, err)
	}
	if err := s.Update(func(tx kv.Tx) error {
		tx.Delete("wal/0001")
		tx.Delete("never-existed")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get("wal/0001"); ok {
		t.Fatal("deleted key still readable")
	}
	if keys, _ := s.List("wal/"); !reflect.DeepEqual(keys, []string{"wal/0003"}) {
		t.Fatalf("List after delete = %v", keys)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get("meta"); err == nil {
		t.Fatal("Get after Close did not error")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	for _, c := range []struct {
		name        string
		b           []float64
		lowerBetter bool
		want        string
	}{
		{"same runs", base, false, "flat"},
		{"20% less throughput", scale(0.8), false, "worse"},
		{"20% more latency", scale(1.2), true, "worse"},
		{"20% more throughput", scale(1.2), false, "better"},
		{"3% less throughput", scale(0.97), false, "flat"},
	} {
		if got := verdict(base, c.b, c.lowerBetter, 0.1); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 100}
	if got := verdict(noisy, noisy, false, 0.1); got != "unresolved" {
		t.Errorf("spread above the bound: %s, want unresolved", got)
	}
}

// TestCompareReadsRunDirectories checks the --compare table end to end.
func TestCompareReadsRunDirectories(t *testing.T) {
	dir := t.TempDir()
	spec := `{"workloads":[{"name":"w","why":"x"}],"end_to_end":[{"name":"m","unit":"s","better":"lower","bound":0.1}],"per_layer":[]}`
	specFile := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(specFile, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	for side, v := range map[string]float64{"a": 1, "b": 2} {
		if err := os.MkdirAll(filepath.Join(dir, side, "w"), 0o755); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			line := fmt.Sprintf("noise\n{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{\"m\":{\"value\":%v,\"unit\":\"s\"}}}\n", v+float64(i)/100)
			if err := os.WriteFile(filepath.Join(dir, side, "w", fmt.Sprint(i)), []byte(line), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	var out bytes.Buffer
	if err := compare(specFile, filepath.Join(dir, "a"), filepath.Join(dir, "b"), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "worse") {
		t.Errorf("doubling a lower-is-better metric did not read worse:\n%s", out.String())
	}
}
