package quality

import (
	"testing"

	"cpq/internal/keys"
	"cpq/internal/pq"
	"cpq/internal/seqheap"
	"cpq/internal/workload"
)

func glFactory(threads int) pq.Queue { return seqheap.NewGlobalLock() }

// ev builds one logged item of a call invoked at inv and answered at resp.
func ev(inv, resp, id, key uint64, del bool) Event {
	return Event{Inv: inv, Resp: resp, ID: id, Key: key, Del: del}
}

func TestReplayStrictHistory(t *testing.T) {
	// insert 3 (id1), insert 1 (id2), delete 1, insert 2 (id3), delete 2,
	// delete 3 — a strict queue: all ranks 0. The log is given out of
	// order: Replay orders the stamps itself.
	hist := []Event{
		ev(11, 12, 1, 3, true),
		ev(3, 4, 2, 1, false),
		ev(1, 2, 1, 3, false),
		ev(9, 10, 3, 2, true),
		ev(5, 6, 2, 1, true),
		ev(7, 8, 3, 2, false),
	}
	res := Replay(hist)
	if res.Deletions != 3 {
		t.Fatalf("replayed %d deletions", res.Deletions)
	}
	if res.MeanRank != 0 || res.MaxRank != 0 || res.MaxDefinite != 0 {
		t.Fatalf("strict history scored mean=%v max=%d definite=%d", res.MeanRank, res.MaxRank, res.MaxDefinite)
	}
	if res.Histogram[0] != 3 {
		t.Fatalf("histogram: %v", res.Histogram)
	}
}

func TestReplayRelaxedHistory(t *testing.T) {
	// Items 1,2,3 inserted; delete 3 first (rank 2), then 1 (rank 0),
	// then 2 (rank 0). The calls do not overlap, so both ranks agree.
	hist := []Event{
		ev(1, 2, 1, 1, false),
		ev(3, 4, 2, 2, false),
		ev(5, 6, 3, 3, false),
		ev(7, 8, 3, 3, true),
		ev(9, 10, 1, 1, true),
		ev(11, 12, 2, 2, true),
	}
	res := Replay(hist)
	if res.Deletions != 3 {
		t.Fatalf("deletions = %d", res.Deletions)
	}
	if res.MaxRank != 2 || res.MaxDefinite != 2 {
		t.Fatalf("max rank = %d, definite %d, want 2", res.MaxRank, res.MaxDefinite)
	}
	wantMean := 2.0 / 3.0
	if diff := res.MeanRank - wantMean; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("mean rank = %v, want %v", res.MeanRank, wantMean)
	}
	if got := ViolationsAbove(res, 1); got != 1 {
		t.Fatalf("ViolationsAbove(1) = %d, want 1", got)
	}
	if got := ViolationsAbove(res, 2); got != 0 {
		t.Fatalf("ViolationsAbove(2) = %d: a rank equal to the bound is no violation", got)
	}
}

func TestReplayDuplicateKeysPessimistic(t *testing.T) {
	// Two items with equal keys; deleting either scores rank 0 (strictly
	// smaller keys only), per the pessimistic duplicate handling.
	hist := []Event{
		ev(1, 2, 1, 5, false),
		ev(3, 4, 2, 5, false),
		ev(5, 6, 2, 5, true),
		ev(7, 8, 1, 5, true),
	}
	res := Replay(hist)
	if res.MeanRank != 0 || res.MaxDefinite != 0 {
		t.Fatalf("duplicate-key rank = %v, definite %d", res.MeanRank, res.MaxDefinite)
	}
}

// TestReplayDefiniteRank checks the definite rank against hand-built
// overlapping histories. Item 1 has key 1 and item 2 has key 5; every
// history ends with a deletion D of item 2, so its definite rank is 1
// exactly when item 1 is certainly in the queue while D runs.
func TestReplayDefiniteRank(t *testing.T) {
	for _, tc := range []struct {
		name                  string
		hist                  []Event
		pessimistic, definite int
	}{
		{"answered insert counts", []Event{
			ev(1, 2, 1, 1, false), ev(3, 4, 2, 5, false), ev(5, 6, 2, 5, true),
		}, 1, 1},
		{"insert answered after the delete began", []Event{
			ev(3, 4, 2, 5, false), ev(5, 8, 1, 1, false), ev(6, 7, 2, 5, true),
		}, 1, 0},
		{"its delete overlaps D", []Event{
			ev(1, 2, 1, 1, false), ev(3, 4, 2, 5, false),
			ev(5, 7, 2, 5, true), ev(6, 8, 1, 1, true),
		}, 1, 0},
		{"its delete ends before D", []Event{
			ev(1, 2, 1, 1, false), ev(3, 4, 2, 5, false),
			ev(5, 6, 1, 1, true), ev(7, 8, 2, 5, true),
		}, 0, 0},
		// The item was deleted before its own insert answered (legal: an
		// insert takes effect before it returns). It must never enter the
		// sweep, or it would stay "present" forever after.
		{"deleted before its insert answered", []Event{
			ev(1, 6, 1, 1, false), ev(2, 3, 1, 1, true),
			ev(4, 5, 2, 5, false), ev(7, 8, 2, 5, true),
		}, 0, 0},
		{"one batch call", []Event{
			ev(1, 2, 1, 1, false), ev(3, 4, 2, 5, false),
			ev(5, 6, 2, 5, true), ev(5, 6, 1, 1, true),
		}, 0, 0},
	} {
		res := Replay(tc.hist)
		if res.MaxRank != tc.pessimistic || res.MaxDefinite != tc.definite {
			t.Errorf("%s: pessimistic %d definite %d, want %d and %d",
				tc.name, res.MaxRank, res.MaxDefinite, tc.pessimistic, tc.definite)
		}
		if got, want := ViolationsAbove(res, 0), uint64(tc.definite); got != want {
			t.Errorf("%s: ViolationsAbove(0) = %d, want %d", tc.name, got, want)
		}
	}
}

// TestReplayTotalOnBrokenLog: phantom, duplicate and key-changing deletions
// are skipped, not ranked, and do not stop the replay.
func TestReplayTotalOnBrokenLog(t *testing.T) {
	hist := []Event{
		ev(1, 2, 1, 1, false),
		ev(3, 4, 2, 5, false),
		ev(5, 6, 99, 7, true),    // never inserted
		ev(7, 8, 1<<40, 7, true), // far beyond every issued identity
		ev(9, 10, 2, 6, true),    // wrong key
		ev(11, 12, 1, 1, true),
		ev(13, 14, 1, 1, true), // deleted twice
		ev(15, 16, 2, 5, true),
	}
	res := Replay(hist)
	if res.Deletions != 2 {
		t.Fatalf("replayed %d deletions, want the 2 valid ones", res.Deletions)
	}
	if res.MaxRank != 0 || res.MaxDefinite != 0 {
		t.Fatalf("valid deletions ranked %d/%d", res.MaxRank, res.MaxDefinite)
	}
}

// TestRecorderStampsCalls: every call gets an invocation stamp before its
// response stamp, a batch call's items share both, and the item identities
// run 1, 2, 3...
func TestRecorderStampsCalls(t *testing.T) {
	var rec Recorder
	lg := rec.Log(0)
	h := seqheap.NewGlobalLock().Handle()
	lg.Insert(h, []pq.KV{{Key: 7}})
	kvs := []pq.KV{{Key: 3}, {Key: 5}}
	lg.Insert(h, kvs)
	one := make([]pq.KV, 1)
	if got := lg.DeleteMin(h, one); got != 1 || one[0] != (pq.KV{Key: 3, Value: 2}) {
		t.Fatalf("DeleteMin = %d, %+v", got, one[0])
	}
	if got := lg.DeleteMin(h, kvs); got != 2 {
		t.Fatalf("batch DeleteMin = %d", got)
	}
	events := rec.Events()
	if len(events) != 6 {
		t.Fatalf("logged %d events", len(events))
	}
	var last uint64
	for i, e := range events {
		if e.Inv >= e.Resp || e.Inv < last {
			t.Fatalf("event %d stamps %d..%d after %d", i, e.Inv, e.Resp, last)
		}
		if !e.Del && e.ID != uint64(i+1) {
			t.Fatalf("insert %d got identity %d", i, e.ID)
		}
		last = e.Inv
	}
	if events[1].Inv != events[2].Inv || events[4].Resp != events[5].Resp {
		t.Fatalf("batch items do not share their call's stamps: %+v", events)
	}
	if res := Replay(events); res.Deletions != 3 || res.MaxDefinite != 0 {
		t.Fatalf("replay: %+v", res)
	}
}

func TestBucketOf(t *testing.T) {
	cases := map[int]int{0: 0, 1: 1, 2: 2, 3: 2, 4: 3, 7: 3, 8: 4, 1023: 10, 1024: 11}
	for rank, want := range cases {
		if got := bucketOf(rank); got != want {
			t.Fatalf("bucketOf(%d) = %d, want %d", rank, got, want)
		}
	}
}

func TestRunStrictQueueScoresZeroSingleThread(t *testing.T) {
	res := Run(Config{
		NewQueue:     glFactory,
		Threads:      1,
		OpsPerThread: 5000,
		Workload:     workload.Uniform,
		KeyDist:      keys.Uniform32,
		Prefill:      2000,
		Seed:         7,
	})
	if res.Deletions == 0 {
		t.Fatal("no deletions replayed")
	}
	if res.MeanRank != 0 {
		t.Fatalf("single-threaded strict queue scored mean rank %v", res.MeanRank)
	}
}

func TestRunStrictQueueLowRankMultiThread(t *testing.T) {
	// A global-lock queue is strict: pessimistic ranks stay tiny (bounded
	// by in-flight ops) and definite ranks are all 0.
	res := Run(Config{
		NewQueue:     glFactory,
		Threads:      4,
		OpsPerThread: 5000,
		Workload:     workload.Uniform,
		KeyDist:      keys.Uniform32,
		Prefill:      2000,
		Seed:         11,
	})
	if res.Deletions == 0 {
		t.Fatal("no deletions replayed")
	}
	if res.MeanRank > 8 {
		t.Fatalf("strict queue scored mean rank %v under stamping pessimism", res.MeanRank)
	}
	if v := ViolationsAbove(res, 0); v > 0 {
		t.Fatalf("strict queue: %d deletions with definite rank above 0 (max %d)", v, res.MaxDefinite)
	}
}

func TestRunDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Threads != 1 || c.OpsPerThread != 100_000 || c.Seed == 0 {
		t.Fatalf("withDefaults: %+v", c)
	}
	if (Config{Prefill: -1}).withDefaults().Prefill != 1_000_000 {
		t.Fatal("negative prefill did not select default")
	}
}
