// Package table implements heap tables laid out as fixed-occupancy slotted
// pages on a simulated disk file.
//
// The paper's experiments use tables T1, T33, and T500 that differ only in
// rows per page (1, 33, 500), with two integer columns that matter: C1 (the
// aggregated column) and C2 (the predicate column, uniformly distributed,
// carrying a non-clustered index). Padding columns that only set the row
// size are represented by the rows-per-page parameter rather than by bytes.
//
// Two backings implement the same interface:
//
//   - Materialized stores real column values, for correctness tests and
//     examples that verify query answers against brute force.
//   - Synthetic derives C2 from an invertible affine permutation of the row
//     number and C1 from a hash, so that multi-million-row experiment sweeps
//     need O(1) memory while still supporting exact index-order enumeration
//     (the inverse permutation maps any key back to its row).
package table

import (
	"fmt"
	"math/rand"

	"pioqo/internal/disk"
)

// Row is the projection of a heap row onto the two columns queries touch.
type Row struct {
	C1 int64 // aggregated column (no index)
	C2 int64 // predicate column (non-clustered index)
}

// Table is a heap table: rows packed RowsPerPage to a page in row-number
// order, stored in a contiguous disk file.
type Table interface {
	Name() string

	// Rows returns the table cardinality.
	Rows() int64

	// RowsPerPage returns the fixed page occupancy (the paper's RPP knob).
	RowsPerPage() int

	// Pages returns the heap size in pages: ceil(Rows/RowsPerPage).
	Pages() int64

	// File returns the disk extent holding the heap pages.
	File() *disk.File

	// RowAt returns row values by row number in [0, Rows). The caller is
	// responsible for having paid the I/O to read PageOf(row) first.
	RowAt(row int64) Row

	// RowsAt returns rows [lo, hi) reusing buf's backing array — the batch
	// accessor scan inner loops use to avoid a virtual call per row. Both
	// backings enumerate incrementally, which is markedly cheaper than
	// hi−lo RowAt calls. The same I/O contract as RowAt applies.
	RowsAt(lo, hi int64, buf []Row) []Row

	// MatchingC1 returns, in row order and reusing buf's backing array,
	// the C1 values of rows [lo, hi) whose C2 lies in [keyLo, keyHi] — the
	// filter-first kernel hook-free scans fold pages with. It equals
	// RowsAt filtered by C2, but computes C1 only for matching rows. The
	// same I/O contract as RowAt applies.
	MatchingC1(lo, hi, keyLo, keyHi int64, buf []int64) []int64

	// KeyDomain returns D such that C2 values lie in [0, D).
	KeyDomain() int64
}

// PageOf returns the heap page holding row number row in a table with the
// given page occupancy.
func PageOf(row int64, rowsPerPage int) int64 { return row / int64(rowsPerPage) }

// pagesFor returns ceil(rows / rpp).
func pagesFor(rows int64, rpp int) int64 {
	return (rows + int64(rpp) - 1) / int64(rpp)
}

func validateShape(name string, rows int64, rpp int) {
	if rows <= 0 || rpp <= 0 {
		panic(fmt.Sprintf("table %q: %d rows, %d rows/page", name, rows, rpp))
	}
}

// Materialized is a heap table with stored column values. C1 and C2 are
// independent uniform draws from [0, rows), matching the paper's data
// generation ("inserted values in each column follow a uniform random
// distribution").
type Materialized struct {
	name string
	rows int64
	rpp  int
	file *disk.File
	c1   []int64
	c2   []int64

	// domain, when positive, overrides the C2 key domain — a partition of
	// a larger table keys over the parent's domain, not its own row count.
	domain int64
}

// NewMaterialized builds a table of rows rows with rpp rows per page,
// allocating its heap file on m and drawing values with the given seed.
func NewMaterialized(m *disk.Manager, name string, rows int64, rpp int, seed int64) *Materialized {
	return newMaterialized(m, name, rows, rpp, seed, nil)
}

// NewMaterializedZipf builds a table whose C2 values follow a Zipf
// distribution with exponent s > 1 over [0, rows) — heavily skewed toward
// small keys. The paper's data is uniform; the skewed backing exercises
// histogram-based cardinality estimation, where a uniform assumption would
// misplace the scan break-even badly.
func NewMaterializedZipf(m *disk.Manager, name string, rows int64, rpp int, seed int64, s float64) *Materialized {
	if s <= 1 {
		panic(fmt.Sprintf("table %q: zipf exponent %f must exceed 1", name, s))
	}
	return newMaterialized(m, name, rows, rpp, seed, func(rng *rand.Rand) func() int64 {
		z := rand.NewZipf(rng, s, 1, uint64(rows-1))
		return func() int64 { return int64(z.Uint64()) }
	})
}

func newMaterialized(m *disk.Manager, name string, rows int64, rpp int, seed int64,
	c2Source func(*rand.Rand) func() int64) *Materialized {
	validateShape(name, rows, rpp)
	cols := drawColumns(rows, seed, c2Source)
	return &Materialized{
		name: name,
		rows: rows,
		rpp:  rpp,
		file: m.MustAllocate(name, pagesFor(rows, rpp)),
		c1:   cols.C1,
		c2:   cols.C2,
	}
}

// Name implements Table.
func (t *Materialized) Name() string { return t.name }

// Rows implements Table.
func (t *Materialized) Rows() int64 { return t.rows }

// RowsPerPage implements Table.
func (t *Materialized) RowsPerPage() int { return t.rpp }

// Pages implements Table.
func (t *Materialized) Pages() int64 { return pagesFor(t.rows, t.rpp) }

// File implements Table.
func (t *Materialized) File() *disk.File { return t.file }

// KeyDomain implements Table.
func (t *Materialized) KeyDomain() int64 {
	if t.domain > 0 {
		return t.domain
	}
	return t.rows
}

// RowAt implements Table.
func (t *Materialized) RowAt(row int64) Row {
	return Row{C1: t.c1[row], C2: t.c2[row]}
}

// RowsAt implements Table by zipping the column slices directly.
func (t *Materialized) RowsAt(lo, hi int64, buf []Row) []Row {
	buf = buf[:0]
	c1, c2 := t.c1[lo:hi], t.c2[lo:hi]
	for i := range c1 {
		buf = append(buf, Row{C1: c1[i], C2: c2[i]})
	}
	return buf
}

// MatchingC1 implements Table.
func (t *Materialized) MatchingC1(lo, hi, keyLo, keyHi int64, buf []int64) []int64 {
	buf = buf[:0]
	c2 := t.c2[lo:hi]
	c1 := t.c1[lo:hi][:len(c2)]
	for i, key := range c2 {
		if key >= keyLo && key <= keyHi {
			buf = append(buf, c1[i])
		}
	}
	return buf
}

// SetC1 updates a row's C1 value in place. Only the materialized backing
// is updatable; the caller is responsible for marking the holding page
// dirty in the buffer pool.
func (t *Materialized) SetC1(row, v int64) { t.c1[row] = v }

// Synthetic is a heap table whose values are computed, not stored. C2 is an
// affine permutation of the row number over [0, rows) — every key occurs
// exactly once, keys scatter (pseudo)uniformly over pages, and the inverse
// permutation recovers the row for any key. C1 is a hash of the row number
// reduced to [0, rows).
type Synthetic struct {
	name string
	rows int64
	rpp  int
	file *disk.File

	a, aInv, b int64 // C2(row) = (a·row + b) mod rows
}

// NewSynthetic builds a computed-value table of rows rows with rpp rows per
// page, allocating its heap file on m. The permutation is derived from seed.
func NewSynthetic(m *disk.Manager, name string, rows int64, rpp int, seed int64) *Synthetic {
	validateShape(name, rows, rpp)
	rng := rand.New(rand.NewSource(seed))
	t := &Synthetic{
		name: name,
		rows: rows,
		rpp:  rpp,
		file: m.MustAllocate(name, pagesFor(rows, rpp)),
	}
	// Pick a multiplier coprime with rows so the map is a bijection. Large
	// odd candidates near phi*rows scatter ranges of keys well across pages.
	for a := int64(float64(rows)*0.6180339887) | 1; ; a += 2 {
		if a >= rows {
			a %= rows
			a |= 1
		}
		if a > 1 && gcd(a, rows) == 1 {
			t.a = a
			break
		}
	}
	t.aInv = modInverse(t.a, rows)
	t.b = rng.Int63n(rows)
	return t
}

// Name implements Table.
func (t *Synthetic) Name() string { return t.name }

// Rows implements Table.
func (t *Synthetic) Rows() int64 { return t.rows }

// RowsPerPage implements Table.
func (t *Synthetic) RowsPerPage() int { return t.rpp }

// Pages implements Table.
func (t *Synthetic) Pages() int64 { return pagesFor(t.rows, t.rpp) }

// File implements Table.
func (t *Synthetic) File() *disk.File { return t.file }

// KeyDomain implements Table.
func (t *Synthetic) KeyDomain() int64 { return t.rows }

// RowAt implements Table.
func (t *Synthetic) RowAt(row int64) Row {
	return Row{C1: int64(mix64(uint64(row)) % uint64(t.rows)), C2: t.key(row)}
}

// RowsAt implements Table. Consecutive rows' keys differ by the fixed
// stride a (mod rows), so the whole range is enumerated with one modular
// multiplication and an add-and-wrap per row — no per-row division for C2.
func (t *Synthetic) RowsAt(lo, hi int64, buf []Row) []Row {
	buf = buf[:0]
	key := t.key(lo)
	n := uint64(t.rows)
	for row := lo; row < hi; row++ {
		buf = append(buf, Row{C1: int64(mix64(uint64(row)) % n), C2: key})
		key += t.a
		if key >= t.rows {
			key -= t.rows
		}
	}
	return buf
}

// MatchingC1 implements Table. It steps the key exactly as RowsAt does but
// hashes C1 only for rows whose key matches, so a selective predicate skips
// nearly all of the per-row hashing. With keyLo <= keyHi, the two-sided test
// is one unsigned compare: subtracting keyLo (mod 2⁶⁴) maps [keyLo, keyHi]
// onto [0, span] and every other key above span.
func (t *Synthetic) MatchingC1(lo, hi, keyLo, keyHi int64, buf []int64) []int64 {
	buf = buf[:0]
	if keyLo > keyHi {
		return buf
	}
	span := uint64(keyHi - keyLo)
	key := t.key(lo)
	n := uint64(t.rows)
	for row := lo; row < hi; row++ {
		if uint64(key-keyLo) <= span {
			buf = append(buf, int64(mix64(uint64(row))%n))
		}
		key += t.a
		if key >= t.rows {
			key -= t.rows
		}
	}
	return buf
}

// key returns C2 for a row: (a·row + b) mod rows, computed with
// overflow-safe modular multiplication.
func (t *Synthetic) key(row int64) int64 {
	return (mulMod(t.a, row, t.rows) + t.b) % t.rows
}

// RowStride returns the increment linking consecutive keys' rows:
// RowForKey(k+1) = (RowForKey(k) + RowStride()) mod Rows(). The synthetic
// B+-tree uses it to enumerate a leaf's entries incrementally instead of
// inverting the permutation per entry.
func (t *Synthetic) RowStride() int64 { return t.aInv }

// RowForKey returns the unique row whose C2 equals key. It is the inverse
// of the permutation and what lets the synthetic B+-tree enumerate entries
// in key order without storing them.
func (t *Synthetic) RowForKey(key int64) int64 {
	if key < 0 || key >= t.rows {
		panic(fmt.Sprintf("table %q: key %d outside domain [0,%d)", t.name, key, t.rows))
	}
	d := key - t.b
	if d < 0 {
		d += t.rows
	}
	return mulMod(t.aInv, d, t.rows)
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// modInverse returns a^-1 mod n via the extended Euclidean algorithm.
// It panics if gcd(a, n) != 1.
func modInverse(a, n int64) int64 {
	t, newT := int64(0), int64(1)
	r, newR := n, a
	for newR != 0 {
		q := r / newR
		t, newT = newT, t-q*newT
		r, newR = newR, r-q*newR
	}
	if r != 1 {
		panic(fmt.Sprintf("table: %d has no inverse mod %d", a, n))
	}
	if t < 0 {
		t += n
	}
	return t
}

// mulMod returns (a*b) mod n without overflow. Operands below 2³¹ (every
// realistic table cardinality) take the single-multiply fast path; larger
// ones fall back to shift-and-add. All operands must be non-negative with
// n > 0.
func mulMod(a, b, n int64) int64 {
	a %= n
	if a < 1<<31 && b < 1<<31 {
		return (a * b) % n
	}
	var result int64
	for b > 0 {
		if b&1 == 1 {
			result = (result + a) % n
		}
		a = (a << 1) % n
		b >>= 1
	}
	return result
}

// mix64 is the splitmix64 finalizer, a fast high-quality bijective hash.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
