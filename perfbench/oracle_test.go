package main

import (
	"testing"

	"pioqo"
	"pioqo/internal/disk"
	"pioqo/internal/table"
)

// tiny is a hand-made table: keys 0..4 in a domain of 6 (key 5 has no
// rows), rows as (C1, C2) pairs.
//
//	C2: 3  0  3  1  4  0  3
//	C1: 7  2  9  4  1  8  5
func tiny() *refTable {
	return newRefSorted(table.Columns{
		C1:     []int64{7, 2, 9, 4, 1, 8, 5},
		C2:     []int64{3, 0, 3, 1, 4, 0, 3},
		Domain: 6,
	})
}

func TestOracleScalarByHand(t *testing.T) {
	o := &oracle{refs: []*refTable{tiny()}}
	for _, c := range []struct {
		lo, hi int64
		agg    pioqo.Aggregate
		want   answer
	}{
		{0, 5, pioqo.Max, answer{value: 9, found: true, rows: 7}},
		{0, 1, pioqo.Max, answer{value: 8, found: true, rows: 3}},
		{3, 3, pioqo.Min, answer{value: 5, found: true, rows: 3}},
		{3, 4, pioqo.Sum, answer{value: 22, found: true, rows: 4}},
		{1, 3, pioqo.Count, answer{value: 4, found: true, rows: 4}},
		{5, 5, pioqo.Max, answer{found: false, rows: 0}},
		{5, 5, pioqo.Count, answer{value: 0, found: true, rows: 0}},
		{-3, 0, pioqo.Max, answer{value: 8, found: true, rows: 2}},
		{4, 99, pioqo.Max, answer{value: 1, found: true, rows: 1}},
	} {
		got := o.apply(op{kind: opQuery, lo: c.lo, hi: c.hi, agg: c.agg})
		if !got.equal(c.want) {
			t.Errorf("%v over [%d,%d] = %+v, want %+v", c.agg, c.lo, c.hi, got, c.want)
		}
	}
}

func TestOracleUpdateIsSeenByLaterOps(t *testing.T) {
	o := &oracle{refs: []*refTable{tiny()}}
	if got := o.apply(op{kind: opUpdate, lo: 0, hi: 1, delta: 10}); !got.equal(answer{rows: 3, found: true}) {
		t.Fatalf("update answer %+v, want 3 rows", got)
	}
	// Keys 0 and 1 now hold C1 12, 18 and 14.
	if got := o.apply(op{kind: opQuery, lo: 0, hi: 5, agg: pioqo.Max}); got.value != 18 {
		t.Errorf("MAX after update = %d, want 18", got.value)
	}
	if got := o.apply(op{kind: opQuery, lo: 0, hi: 1, agg: pioqo.Sum}); got.value != 44 {
		t.Errorf("SUM after update = %d, want 44", got.value)
	}
}

func TestOracleGroupByByHand(t *testing.T) {
	o := &oracle{refs: []*refTable{tiny()}}
	got := o.apply(op{kind: opGroupBy, lo: 0, hi: 5, width: 2, agg: pioqo.Max})
	want := answer{found: true, rows: 7, groups: []pioqo.GroupRow{
		{Key: 0, Value: 8, Rows: 3}, // keys 0,1: C1 2, 8, 4
		{Key: 1, Value: 9, Rows: 3}, // key 3: C1 7, 9, 5
		{Key: 2, Value: 1, Rows: 1}, // key 4
	}}
	if !got.equal(want) {
		t.Errorf("GROUP BY = %+v, want %+v", got, want)
	}
	got = o.apply(op{kind: opGroupBy, lo: 1, hi: 3, width: 2, agg: pioqo.Count})
	want = answer{found: true, rows: 4, groups: []pioqo.GroupRow{
		{Key: 0, Value: 1, Rows: 1},
		{Key: 1, Value: 3, Rows: 3},
	}}
	if !got.equal(want) {
		t.Errorf("GROUP BY [1,3] = %+v, want %+v", got, want)
	}
}

func TestOracleJoinByHand(t *testing.T) {
	// probe: tiny(); build: keys 0, 3, 3, 5 (so key 3 matches twice).
	build := newRefSorted(table.Columns{C1: []int64{1, 1, 1, 1}, C2: []int64{0, 3, 3, 5}, Domain: 6})
	o := &oracle{refs: []*refTable{build, tiny()}}
	j := op{kind: opJoin, tab: 0, probe: 1, lo: 0, hi: 5}
	// Pairs: key 0: 1 build x 2 probe; key 3: 2 build x 3 probe; key 5: no
	// probe rows. Probe C1 per pair: 2, 8, and 7, 9, 5 twice each.
	for _, c := range []struct {
		agg  pioqo.Aggregate
		want answer
	}{
		{pioqo.Max, answer{value: 9, found: true, rows: 8}},
		{pioqo.Min, answer{value: 2, found: true, rows: 8}},
		{pioqo.Sum, answer{value: 2 + 8 + 2*(7+9+5), found: true, rows: 8}},
		{pioqo.Count, answer{value: 8, found: true, rows: 8}},
	} {
		j.agg = c.agg
		if got := o.apply(j); !got.equal(c.want) {
			t.Errorf("join %v = %+v, want %+v", c.agg, got, c.want)
		}
	}
	j.lo, j.hi, j.agg = 4, 5, pioqo.Max
	if got := o.apply(j); !got.equal(answer{rows: 0}) {
		t.Errorf("join with no pairs = %+v, want none found", got)
	}
}

// TestOracleMatchesBruteForce checks the sorted reference against a plain
// scan of the generated rows, for both generators and a synthetic table.
func TestOracleMatchesBruteForce(t *testing.T) {
	const rows = 3000
	for name, cols := range map[string]table.Columns{
		"uniform": table.DrawColumns(rows, 11),
		"zipf":    table.DrawColumnsZipf(rows, 11, 1.3),
		"synthetic": func() table.Columns {
			st := table.NewSynthetic(disk.NewManager(sizeOnlyDevice{}), "t", rows, 7, 11)
			c := table.Columns{Domain: rows}
			for _, r := range st.RowsAt(0, rows, nil) {
				c.C1, c.C2 = append(c.C1, r.C1), append(c.C2, r.C2)
			}
			return c
		}(),
	} {
		ref := newRefSorted(cols)
		if name == "synthetic" {
			ref = newRefSynthetic(rows, 7, 11)
		}
		o := &oracle{refs: []*refTable{ref}}
		for _, r := range [][2]int64{{0, 0}, {0, 9}, {17, 17}, {100, 400}, {2500, 2999}, {0, rows - 1}} {
			var max int64
			var n int64
			for i, k := range cols.C2 {
				if k >= r[0] && k <= r[1] {
					if n == 0 || cols.C1[i] > max {
						max = cols.C1[i]
					}
					n++
				}
			}
			want := answer{value: max, found: n > 0, rows: n}
			if got := o.apply(op{kind: opQuery, lo: r[0], hi: r[1], agg: pioqo.Max}); !got.equal(want) {
				t.Errorf("%s MAX over %v = %+v, brute force %+v", name, r, got, want)
			}
		}
	}
}
