package harness

import (
	"testing"

	"cpq/internal/multiq"
	"cpq/internal/pq"
)

func TestRunChurnPooled(t *testing.T) {
	st := RunChurn(ChurnConfig{
		NewQueue:   func(int) pq.Queue { return multiq.New(2, 1) },
		Slots:      4,
		Goroutines: 400,
		Prefill:    2000,
	})
	if want := uint64(400 * BurstOps); st.Ops != want {
		t.Fatalf("Ops = %d, want %d", st.Ops, want)
	}
	// The whole point: 400 goroutines served by a handful of real handles.
	if st.HandlesCreated > 4 {
		t.Fatalf("HandlesCreated = %d for 4 slots (cap 4): recycling broken", st.HandlesCreated)
	}
	if st.PeakLive < 1 || st.PeakLive > 4 {
		t.Fatalf("PeakLive = %d, want 1..4", st.PeakLive)
	}
	if st.MOps() <= 0 {
		t.Fatalf("MOps = %v, want > 0", st.MOps())
	}
}
