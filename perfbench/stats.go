package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// class buckets an op by its query template, never by the plan it gets, so
// an engine change cannot move an op from one latency class to another.
type class int

const (
	classShort class = iota // point lookup or range of at most shortFrac of the key domain
	classLong               // wider range, full scan, join or GROUP BY
	classWrite              // Update
	numClasses
)

// shortFrac is the widest range, as a share of the key domain, that still
// counts as a short op.
const shortFrac = 0.001

var classNames = [numClasses]string{"short", "long", "write"}

func (c class) String() string { return classNames[c] }

// classify assigns an op's class from its template alone: the op kind, the
// width of its key range and the key domain of its table.
func classify(kind opKind, lo, hi, domain int64) class {
	switch kind {
	case opUpdate:
		return classWrite
	case opJoin, opGroupBy:
		return classLong
	}
	if float64(hi-lo+1) <= shortFrac*float64(domain) {
		return classShort
	}
	return classLong
}

// nearestRank returns the p-th percentile (0 < p <= 100) of sorted by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps float error in p/100·n (0.999·10000 is
	// 9990.000000000002) from pushing the rank one past the exact value.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tailLadder is the set of percentiles a tail may be reported at.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// minBeyond is how many samples must lie beyond a tail percentile for the
// percentile to be reported.
const minBeyond = 10

// tailPercentile returns the highest percentile on the ladder that leaves at
// least minBeyond of n samples beyond it (p99 from 1000 samples, p90 from
// 100), or 50 when even the median leaves fewer.
func tailPercentile(n int) float64 {
	for _, p := range tailLadder {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			return p
		}
	}
	return 50
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// durMs converts a duration to float milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0, so a layer the workload leaves idle
// reads as 0 instead of NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named, unit-tagged value the benchmark prints.
type metric struct {
	name  string
	unit  string
	value float64
	note  string // the base of a ratio, or how a value was taken; text output only
}

func (m metric) String() string {
	s := fmt.Sprintf("%s %v %s", m.name, m.value, m.unit)
	if m.note != "" {
		s += "  (" + m.note + ")"
	}
	return s
}
