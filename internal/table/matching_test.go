package table

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// filterC1 is MatchingC1's reference: RowsAt filtered by C2.
func filterC1(t Table, lo, hi, keyLo, keyHi int64) []int64 {
	out := []int64{}
	for _, r := range t.RowsAt(lo, hi, nil) {
		if r.C2 >= keyLo && r.C2 <= keyHi {
			out = append(out, r.C1)
		}
	}
	return out
}

// matchingTables returns one table of every backing: synthetic, uniform and
// Zipf materialized, and the partitions of a hash- and a range-partitioned
// rowset (whose key domain is the parent's, not their own row count). Row
// counts are not multiples of the page occupancy, so every table ends in a
// partial page.
func matchingTables() []Table {
	m := newManager()
	tables := []Table{
		NewSynthetic(m, "syn", 10007, 33, 3),
		NewSynthetic(m, "syn1", 997, 1, 4),
		NewMaterialized(m, "mat", 5003, 33, 5),
		NewMaterializedZipf(m, "zipf", 5003, 7, 6, 1.3),
	}
	cols := DrawColumnsZipf(6007, 7, 1.1)
	hashParts, _ := cols.Partition(3, func(k int64) int { return HashShard(k, 3) })
	rangeParts, _ := cols.Partition(3, func(k int64) int { return RangeShard(k, EqualWidthCuts(cols.Domain, 3)) })
	for i, p := range append(hashParts, rangeParts...) {
		tables = append(tables, NewMaterializedFrom(m, fmt.Sprintf("part%d", i), 33, p.C1, p.C2, p.Domain))
	}
	return tables
}

func TestMatchingC1EqualsFilteredRowsAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, tb := range matchingTables() {
		rows, dom := tb.Rows(), tb.KeyDomain()
		rpp := int64(tb.RowsPerPage())
		lastPage := (tb.Pages() - 1) * rpp
		type span struct{ lo, hi, keyLo, keyHi int64 }
		cases := []span{
			{0, rows, 0, dom - 1},                       // full table, full domain
			{0, rows, math.MinInt64, math.MaxInt64},     // range wider than the domain
			{lastPage, rows, 0, dom - 1},                // last partial page
			{lastPage, rows, dom / 4, dom / 2},          // last partial page, filtered
			{rows / 2, rows / 2, 0, dom - 1},            // empty row range
			{0, rows, dom / 2, dom/2 - 1},               // keyLo > keyHi
			{0, rows, dom, dom + 10},                    // keys past the domain
			{0, rpp, -5, -1},                            // keys below the domain
			{rows - 1, rows, 0, dom - 1},                // last row alone
			{0, rows, dom / 3, dom / 3},                 // one key
			{rpp, 3 * rpp, math.MinInt64, dom / 10},     // open lower bound
			{rpp, 3 * rpp, dom - dom/10, math.MaxInt64}, // open upper bound
		}
		for i := 0; i < 200; i++ {
			lo := rng.Int63n(rows)
			hi := lo + rng.Int63n(rows-lo+1)
			keyLo := rng.Int63n(dom+20) - 10
			keyHi := keyLo + rng.Int63n(dom/3+1) - 2
			cases = append(cases, span{lo, hi, keyLo, keyHi})
		}
		buf := make([]int64, 0, 8)
		for _, c := range cases {
			want := filterC1(tb, c.lo, c.hi, c.keyLo, c.keyHi)
			buf = tb.MatchingC1(c.lo, c.hi, c.keyLo, c.keyHi, buf)
			if len(want) == 0 && len(buf) == 0 {
				continue
			}
			if !reflect.DeepEqual(buf, want) {
				t.Fatalf("%s: MatchingC1(%d, %d, %d, %d) = %d values, want %d (first diff in %v vs %v)",
					tb.Name(), c.lo, c.hi, c.keyLo, c.keyHi, len(buf), len(want), head(buf), head(want))
			}
		}
	}
}

func head(v []int64) []int64 {
	if len(v) > 5 {
		return v[:5]
	}
	return v
}

// BenchmarkMatchingC1 scans a 500-rows-per-page synthetic table page by
// page at three selectivities, with the filter-first kernel and, for
// reference, with RowsAt plus a C2 filter. ns/op is per row.
func BenchmarkMatchingC1(b *testing.B) {
	const rows, rpp = 1 << 20, 500
	tb := NewSynthetic(newManager(), "bench", rows, rpp, 1)
	for _, sel := range []float64{1e-3, 0.1, 1} {
		keyHi := int64(sel*rows) - 1
		b.Run(fmt.Sprintf("sel=%g/matching", sel), func(b *testing.B) {
			var buf []int64
			var sink int64
			for i := 0; i < b.N; i += rpp {
				lo := int64(i) % (rows - rpp)
				buf = tb.MatchingC1(lo, lo+rpp, 0, keyHi, buf)
				sink += int64(len(buf))
			}
			_ = sink
		})
		b.Run(fmt.Sprintf("sel=%g/rowsat", sel), func(b *testing.B) {
			var buf []Row
			var sink int64
			for i := 0; i < b.N; i += rpp {
				lo := int64(i) % (rows - rpp)
				buf = tb.RowsAt(lo, lo+rpp, buf)
				for _, r := range buf {
					if r.C2 >= 0 && r.C2 <= keyHi {
						sink += r.C1
					}
				}
			}
			_ = sink
		})
	}
}
