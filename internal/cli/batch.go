package cli

import "fmt"

// MaxBatch caps the operation batch widths accepted by the tools. The
// limit is arbitrary but catches unit mistakes (a duration or key count
// pasted into -batch) before a run allocates per-worker scratch of that
// size.
const MaxBatch = 1 << 16

// CheckBatch checks the batch width given to the named flag. Width 1 means
// scalar operation; widths above 1 route the workload through
// InsertN/DeleteMinN.
func CheckBatch(flagName string, batch int) error {
	if batch < 1 || batch > MaxBatch {
		return fmt.Errorf("invalid -%s %d (want 1..%d)", flagName, batch, MaxBatch)
	}
	return nil
}
