package cli

import (
	"fmt"
	"os"
)

// MaxSegmentBytes caps -seg-bytes: a WAL segment (one preallocated
// file) of more than 1 GiB is a unit mistake, not a tuning choice.
const MaxSegmentBytes = 1 << 30

// ValidateSnapEvery checks a -snap-every cadence (logged ops between
// automatic snapshots; 0 disables them), exiting with status 2 on a
// negative value — the same up-front typed exit ValidateQueues uses, so
// a bad flag is reported before any traffic is served.
func ValidateSnapEvery(tool string, every int) {
	if every < 0 {
		fmt.Fprintf(os.Stderr, "%s: invalid -snap-every %d (want >= 0; 0 disables automatic snapshots)\n",
			tool, every)
		os.Exit(2)
	}
}

// ValidateSegBytes checks a -seg-bytes WAL segment size (0 = default),
// exiting with status 2 when it is negative or implausibly large.
func ValidateSegBytes(tool string, bytes int) {
	if bytes < 0 || bytes > MaxSegmentBytes {
		fmt.Fprintf(os.Stderr, "%s: invalid -seg-bytes %d (want 0..%d; 0 uses the default 1 MiB)\n",
			tool, bytes, MaxSegmentBytes)
		os.Exit(2)
	}
}
