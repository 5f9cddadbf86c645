package main

import (
	"pioqo"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// The answer oracle recomputes every op's answer from the table layer's
// own generators (table.DrawColumns / DrawColumnsZipf for materialized
// tables, table.Synthetic.RowsAt for synthetic ones) with no simulator
// run, buffer pool, index or optimizer. Each reference table keeps C1 in
// C2 order, so a key range is one contiguous slice and an Update's delta is
// applied to the same slice the engine's rows map to.

// refTable is one table's rows sorted by key: the rows with C2 == k are
// c1[start[k]:start[k+1]]. A synthetic table holds each key exactly once,
// so its start is the identity and is left nil.
type refTable struct {
	c1     []int64
	start  []int32
	domain int64
}

// span returns the index range of c1 holding keys in [lo, hi], clipped to
// the key domain.
func (r *refTable) span(lo, hi int64) (int64, int64) {
	if lo < 0 {
		lo = 0
	}
	if hi >= r.domain {
		hi = r.domain - 1
	}
	if lo > hi {
		return 0, 0
	}
	if r.start == nil {
		return lo, hi + 1
	}
	return int64(r.start[lo]), int64(r.start[hi+1])
}

// keyRows returns the index range of c1 holding key k.
func (r *refTable) keyRows(k int64) (int64, int64) { return r.span(k, k) }

// newRefSorted builds a reference table from generated columns by a
// counting sort on C2 (keys lie in [0, domain)).
func newRefSorted(cols table.Columns) *refTable {
	r := &refTable{domain: cols.Domain, start: make([]int32, cols.Domain+1), c1: make([]int64, len(cols.C1))}
	for _, k := range cols.C2 {
		r.start[k+1]++
	}
	for k := int64(1); k <= cols.Domain; k++ {
		r.start[k] += r.start[k-1]
	}
	next := append([]int32(nil), r.start[:cols.Domain]...)
	for i, k := range cols.C2 {
		r.c1[next[k]] = cols.C1[i]
		next[k]++
	}
	return r
}

// sizeOnlyDevice gives the oracle's disk manager a capacity to allocate
// synthetic heap files against; the oracle never reads through it.
type sizeOnlyDevice struct{}

func (sizeOnlyDevice) ReadAt(int64, int) *sim.Completion  { panic("oracle: device read") }
func (sizeOnlyDevice) WriteAt(int64, int) *sim.Completion { panic("oracle: device write") }
func (sizeOnlyDevice) Size() int64                        { return 1 << 50 }
func (sizeOnlyDevice) Name() string                       { return "oracle" }
func (sizeOnlyDevice) Metrics() *device.Metrics           { return nil }

// newRefSynthetic scans a synthetic table's generator in row order and
// files each row's C1 under its key (C2 is a permutation of the rows).
func newRefSynthetic(rows int64, rpp int, seed int64) *refTable {
	st := table.NewSynthetic(disk.NewManager(sizeOnlyDevice{}), "oracle", rows, rpp, seed)
	r := &refTable{domain: rows, c1: make([]int64, rows)}
	const chunk = 1 << 16
	var buf []table.Row
	for lo := int64(0); lo < rows; lo += chunk {
		hi := min(lo+chunk, rows)
		buf = st.RowsAt(lo, hi, buf)
		for _, row := range buf {
			r.c1[row.C2] = row.C1
		}
	}
	return r
}

// newRef generates the reference rows for one table spec.
func newRef(t tableSpec) *refTable {
	switch {
	case t.synthetic:
		return newRefSynthetic(t.rows, t.rpp, t.seed)
	case t.zipf > 0:
		return newRefSorted(table.DrawColumnsZipf(t.rows, t.seed, t.zipf))
	default:
		return newRefSorted(table.DrawColumns(t.rows, t.seed))
	}
}

// aggregate folds agg over vals the way the engine does: MAX/MIN/SUM are
// NULL (found=false) over no rows, COUNT is always found.
func aggregate(agg pioqo.Aggregate, vals []int64) (value int64, found bool) {
	if agg == pioqo.Count {
		return int64(len(vals)), true
	}
	for i, v := range vals {
		switch {
		case i == 0:
			value = v
		case agg == pioqo.Max && v > value, agg == pioqo.Min && v < value:
			value = v
		case agg == pioqo.Sum:
			value += v
		}
	}
	return value, len(vals) > 0
}

// answer is the part of an op's result the oracle checks and the checksum
// covers.
type answer struct {
	value  int64
	found  bool
	rows   int64 // matching rows; updated rows; joined pairs
	groups []pioqo.GroupRow
}

func (a answer) equal(b answer) bool {
	if a.found != b.found || a.rows != b.rows || (a.found && a.value != b.value) || len(a.groups) != len(b.groups) {
		return false
	}
	for i := range a.groups {
		if a.groups[i] != b.groups[i] {
			return false
		}
	}
	return true
}

// oracle holds the reference tables of one scenario.
type oracle struct {
	refs []*refTable
}

// apply computes op's answer, and for an Update applies its delta to the
// reference rows so later ops see the write.
func (o *oracle) apply(op op) answer {
	r := o.refs[op.tab]
	switch op.kind {
	case opUpdate:
		a, b := r.span(op.lo, op.hi)
		for i := a; i < b; i++ {
			r.c1[i] += op.delta
		}
		return answer{rows: b - a, found: true}
	case opJoin:
		return o.join(op)
	case opGroupBy:
		return groupBy(r, op)
	}
	a, b := r.span(op.lo, op.hi)
	v, found := aggregate(op.agg, r.c1[a:b])
	return answer{value: v, found: found, rows: b - a}
}

// join answers SELECT agg(probe.C1) FROM probe JOIN build ON probe.C2 =
// build.C2 WHERE build.C2 BETWEEN lo AND hi: every probe row with key k
// joins each of the build side's rows with key k.
func (o *oracle) join(op op) answer {
	build, probe := o.refs[op.tab], o.refs[op.probe]
	lo, hi := max(op.lo, 0), min(op.hi, build.domain-1, probe.domain-1)
	var out answer
	for k := lo; k <= hi; k++ {
		ba, bb := build.keyRows(k)
		pa, pb := probe.keyRows(k)
		m := bb - ba
		if m == 0 || pa == pb {
			continue
		}
		for _, v := range probe.c1[pa:pb] {
			switch {
			case !out.found:
				out.value = v
				if op.agg == pioqo.Sum {
					out.value = v * m
				}
			case op.agg == pioqo.Max && v > out.value, op.agg == pioqo.Min && v < out.value:
				out.value = v
			case op.agg == pioqo.Sum:
				out.value += v * m
			}
			out.found = true
		}
		out.rows += m * (pb - pa)
	}
	if op.agg == pioqo.Count {
		out.value, out.found = out.rows, true
	}
	return out
}

// groupBy answers SELECT C2/width, agg(C1) ... GROUP BY C2/width over the
// key range, groups in key order.
func groupBy(r *refTable, op op) answer {
	lo, hi := max(op.lo, 0), min(op.hi, r.domain-1)
	var out answer
	for g := lo / op.width; g <= hi/op.width; g++ {
		a, b := r.span(max(lo, g*op.width), min(hi, g*op.width+op.width-1))
		if a == b {
			continue
		}
		v, _ := aggregate(op.agg, r.c1[a:b])
		out.groups = append(out.groups, pioqo.GroupRow{Key: g, Value: v, Rows: b - a})
		out.rows += b - a
	}
	out.found = true
	return out
}
