package exec

import (
	"math/rand"
	"testing"
)

// TestPropertyAllExecutionStrategiesAgree drives randomly shaped workloads
// — table size, page occupancy, pool size, predicate range, access method,
// degree, prefetch — and requires every strategy to produce exactly the
// brute-force answer. This is the repository's broadest correctness net:
// any bug in work distribution, prefetch windows, pool eviction, or leaf
// slicing that loses or duplicates a row trips it.
func TestPropertyAllExecutionStrategiesAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		rows := int64(rng.Intn(8000) + 100)
		rpp := []int{1, 7, 33, 120}[rng.Intn(4)]
		poolPages := []int{64, 256, 2048}[rng.Intn(3)]
		lo := rng.Int63n(rows)
		hi := lo + rng.Int63n(rows-lo)
		devKind := []string{"ssd", "hdd"}[rng.Intn(2)]

		w := newWorld(t, worldOpts{dev: devKind, rows: rows, rpp: rpp, poolPages: poolPages})
		wantMax, wantFound, wantRows := w.bruteForce(lo, hi)

		for _, m := range []Method{FullScan, IndexScan, SortedIndexScan} {
			degree := []int{1, 3, 8, 32}[rng.Intn(4)]
			prefetch := []int{0, 1, 5, 17}[rng.Intn(4)]
			spec := w.spec(m, degree, lo, hi)
			spec.PrefetchPerWorker = prefetch
			res := Execute(w.ctx, spec)
			if res.Found != wantFound || (wantFound && res.Value != wantMax) ||
				res.RowsMatched != wantRows {
				t.Fatalf("trial %d: %v deg=%d pf=%d rows=%d rpp=%d pool=%d dev=%s range=[%d,%d]:\n"+
					"got (max=%d found=%v rows=%d), want (max=%d found=%v rows=%d)",
					trial, m, degree, prefetch, rows, rpp, poolPages, devKind, lo, hi,
					res.Value, res.Found, res.RowsMatched, wantMax, wantFound, wantRows)
			}
			w.ctx.Pool.Flush()
		}
	}
}

// TestPropertyJoinMatchesBruteForce does the same for random hash joins.
func TestPropertyJoinMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const trials = 10
	for trial := 0; trial < trials; trial++ {
		buildRows := int64(rng.Intn(2000) + 100)
		probeRows := int64(rng.Intn(4000) + 100)
		w := newJoinWorld(t, buildRows, probeRows)
		lo := rng.Int63n(buildRows)
		hi := lo + rng.Int63n(buildRows-lo)
		wantPairs, wantMax, wantFound := w.bruteForceJoin(lo, hi)

		methods := []Method{FullScan, IndexScan, SortedIndexScan}
		spec := w.spec(lo, hi,
			methods[rng.Intn(3)], methods[rng.Intn(3)], []int{1, 4, 16}[rng.Intn(3)])
		res := ExecuteJoin(w.ctx, spec)
		if res.Pairs != wantPairs || res.Found != wantFound ||
			(wantFound && res.Value != wantMax) {
			t.Fatalf("trial %d: build=%d probe=%d range=[%d,%d]: got (pairs=%d max=%d,%v), want (pairs=%d max=%d,%v)",
				trial, buildRows, probeRows, lo, hi,
				res.Pairs, res.Value, res.Found, wantPairs, wantMax, wantFound)
		}
	}
}

// TestAddC1sMatchesAdd checks the hook-free page fold against the per-row
// accumulator for every aggregate, over random batches that include empty
// ones and negative values, fed one after another into one accumulator.
func TestAddC1sMatchesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, kind := range []AggKind{AggMax, AggMin, AggSum, AggCount} {
		batched, perRow := agg{kind: kind}, agg{kind: kind}
		for batch := 0; batch < 50; batch++ {
			vals := make([]int64, rng.Intn(4))
			for i := range vals {
				vals[i] = rng.Int63n(2001) - 1000
			}
			batched.addC1s(vals)
			for _, v := range vals {
				perRow.add(v)
			}
			if batched != perRow {
				t.Fatalf("%v batch %d: addC1s gives %+v, add gives %+v", kind, batch, batched, perRow)
			}
		}
	}
}
