package cli

import (
	"cpq"
	"cpq/internal/pq"
)

// ParseQueues reads a -queues list: it splits it, expands its aliases
// (ExpandQueues) and builds every name once through the registry, so a typo
// is reported before any benchmark time is spent. An empty list selects def.
// An unknown name's error (*cpq.UnknownQueueError) lists the known ones.
func ParseQueues(s string, def []string) ([]string, error) {
	names := def
	if list := ParseList(s); list != nil {
		names = ExpandQueues(list)
	}
	for _, n := range names {
		q, err := cpq.NewQueue(n, cpq.Options{})
		if err != nil {
			return nil, err
		}
		pq.Close(q) // an empty in-memory queue: nothing to flush, no error to report
	}
	return names, nil
}
