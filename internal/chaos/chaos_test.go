package chaos

import (
	"testing"
)

func TestDisabledPathsAreNoOps(t *testing.T) {
	Disable()
	// The counters keep the last Enable's hits (another test's, or this
	// test's previous -count run); disabled calls must add none.
	before := Snapshot().TotalHits()
	for fp := Failpoint(0); fp < NumFailpoints; fp++ {
		if ShouldFail(fp) {
			t.Fatalf("ShouldFail(%v) true while disabled", fp)
		}
		Perturb(fp) // must not panic or spin
	}
	if after := Snapshot().TotalHits(); after != before {
		t.Fatalf("disabled failpoints recorded %d hits", after-before)
	}
}

func TestDisabledPathsAllocFree(t *testing.T) {
	Disable()
	if n := testing.AllocsPerRun(1000, func() {
		Perturb(SLSMPublish)
		_ = ShouldFail(MQLock)
	}); n != 0 {
		t.Fatalf("disabled failpoints allocate %v per op", n)
	}
}

func TestEnableResetsAndCounts(t *testing.T) {
	Enable(Config{Seed: 42, DelayEvery: 1, FailEvery: 1, MaxYield: 1, MaxSpin: 1})
	defer Disable()
	for i := 0; i < 100; i++ {
		Perturb(SprayWalk)
		ShouldFail(SprayWalk)
	}
	st := Snapshot()
	if st.Hits[SprayWalk] != 200 {
		t.Fatalf("hits = %d, want 200", st.Hits[SprayWalk])
	}
	if st.Delays[SprayWalk] != 100 || st.Fails[SprayWalk] != 100 {
		t.Fatalf("rate-1 injection skipped: delays=%d fails=%d",
			st.Delays[SprayWalk], st.Fails[SprayWalk])
	}
	// Re-enabling resets the counters.
	Enable(Config{Seed: 42})
	if Snapshot().TotalHits() != 0 {
		t.Fatal("Enable did not reset counters")
	}
}

func TestDecisionsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []bool {
		Enable(Config{Seed: seed, MaxSpin: 1, MaxYield: 1})
		defer Disable()
		out := make([]bool, 400)
		for i := range out {
			out[i] = ShouldFail(Failpoint(i % int(NumFailpoints)))
		}
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical seeds", i)
		}
	}
	c := run(8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical decision streams")
	}
}

func TestNegativeRatesDisableInjection(t *testing.T) {
	Enable(Config{Seed: 1, DelayEvery: -1, FailEvery: -1})
	defer Disable()
	for i := 0; i < 500; i++ {
		Perturb(MQFlush)
		if ShouldFail(MQFlush) {
			t.Fatal("FailEvery=-1 still forced a failure")
		}
	}
	st := Snapshot()
	if st.Delays[MQFlush] != 0 || st.Fails[MQFlush] != 0 {
		t.Fatalf("negative rates injected: %+v", st)
	}
	if st.Hits[MQFlush] != 1000 {
		t.Fatalf("hits not counted: %d", st.Hits[MQFlush])
	}
}

func TestFailpointNames(t *testing.T) {
	seen := map[string]bool{}
	for fp := Failpoint(0); fp < NumFailpoints; fp++ {
		n := fp.String()
		if n == "" || seen[n] {
			t.Fatalf("failpoint %d has empty or duplicate name %q", fp, n)
		}
		seen[n] = true
	}
}
