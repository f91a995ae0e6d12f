package quality

import (
	"cmp"
	"slices"

	"cpq/internal/ostree"
	"cpq/internal/stats"
)

// Sweep point kinds, in their order at equal stamps. Equal stamps belong
// to one call: a batch deletion ends every item's presence before it ranks
// any of them, and replays its items in key order, so they never count
// against each other.
const (
	presentUntil = iota // an item's earliest delete is invoked
	invoked             // a deletion is invoked
	answered            // a deletion responds
	insertAt            // an insert is invoked: it enters the pessimistic history
	presentFrom         // an insert responds
)

type sweepPoint struct {
	order uint64 // stamp<<3 | kind
	i     int32  // index into the log
}

// Replay ranks every deletion of a stamped log (Recorder.Events), given in
// any order. Item identities and stamps are the Recorder's: small positive
// integers. A deletion of an item the log never inserted, with another key
// than its insert's, or of an item already deleted is not ranked; the
// chaos checker's item accounting reports those.
//
// One sweep over the stamps keeps two trees: the pessimistic history, and
// the items certainly present (insert responded, no delete invoked). A
// deletion's pessimistic rank is its count of smaller keys in the history
// when it responds. Its definite rank is its count of smaller keys
// certainly present when it is invoked, less those whose delete is invoked
// before it responds: the items that every linearization places in the
// queue when the deletion takes effect.
func Replay(log []Event) Result {
	var maxID uint64
	for _, e := range log {
		if !e.Del {
			maxID = max(maxID, e.ID)
		}
	}
	delInv := make([]uint64, maxID+1) // each item's earliest delete invocation (0: none)
	for _, e := range log {
		if e.Del && e.ID <= maxID && (delInv[e.ID] == 0 || e.Inv < delInv[e.ID]) {
			delInv[e.ID] = e.Inv
		}
	}
	points := make([]sweepPoint, 0, 2*len(log))
	for i, e := range log {
		at := int32(i)
		if e.Del {
			points = append(points, sweepPoint{e.Inv<<3 | invoked, at}, sweepPoint{e.Resp<<3 | answered, at})
			continue
		}
		points = append(points, sweepPoint{e.Inv<<3 | insertAt, at})
		// An item deleted before its insert responded is never certainly
		// present.
		if d := delInv[e.ID]; d == 0 || d > e.Resp {
			points = append(points, sweepPoint{e.Resp<<3 | presentFrom, at})
			if d != 0 {
				points = append(points, sweepPoint{d<<3 | presentUntil, at})
			}
		}
	}
	slices.SortFunc(points, func(a, b sweepPoint) int {
		if a.order != b.order {
			return cmp.Compare(a.order, b.order)
		}
		return cmp.Compare(log[a.i].Key, log[b.i].Key)
	})

	res := Result{Histogram: make([]uint64, 1)}
	var history, present ostree.Tree
	var acc stats.Welford
	type pending struct {
		i    int32
		rank int // definite rank so far
	}
	var open []pending // the invoked deletions that have not responded
	for _, p := range points {
		e := log[p.i]
		switch p.order & 7 {
		case insertAt:
			history.Insert(e.Key, e.ID)
		case presentFrom:
			present.Insert(e.Key, e.ID)
		case presentUntil:
			present.Delete(e.Key, e.ID)
			for j, o := range open {
				if d := log[o.i]; e.Key < d.Key && e.Resp < d.Inv {
					open[j].rank--
				}
			}
		case invoked:
			open = append(open, pending{p.i, present.Rank(e.Key)})
		case answered:
			j := slices.IndexFunc(open, func(o pending) bool { return o.i == p.i })
			definite := open[j].rank
			open[j] = open[len(open)-1]
			open = open[:len(open)-1]
			rank, ok := history.Delete(e.Key, e.ID)
			if !ok {
				continue
			}
			res.Deletions++
			acc.Add(float64(rank))
			res.MaxRank = max(res.MaxRank, rank)
			b := bucketOf(rank)
			for len(res.Histogram) <= b {
				res.Histogram = append(res.Histogram, 0)
			}
			res.Histogram[b]++
			for len(res.Definite) <= definite {
				res.Definite = append(res.Definite, 0)
			}
			res.Definite[definite]++
			res.MaxDefinite = max(res.MaxDefinite, definite)
		}
	}
	res.MeanRank = acc.Mean()
	res.StddevRank = acc.Stddev()
	return res
}

// bucketOf maps a rank to its histogram bucket: 0→0, 1→1, 2..3→2, 4..7→3...
func bucketOf(rank int) int {
	b := 0
	for rank > 0 {
		rank >>= 1
		b++
	}
	return b
}
