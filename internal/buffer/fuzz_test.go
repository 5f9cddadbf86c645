package buffer

import (
	"math/rand"
	"slices"
	"testing"

	"pioqo/internal/sim"
)

// refLRU is an independent reference implementation of LRU residency, kept
// deliberately naive: a slice of page numbers, most recent first.
type refLRU struct {
	capacity int
	pages    []int64
}

func newRefLRU(capacity int) *refLRU { return &refLRU{capacity: capacity} }

func (r *refLRU) touch(page int64) {
	if i := slices.Index(r.pages, page); i >= 0 {
		r.pages = slices.Delete(r.pages, i, i+1)
	} else if len(r.pages) >= r.capacity {
		r.pages = r.pages[:len(r.pages)-1]
	}
	r.pages = slices.Insert(r.pages, 0, page)
}

func (r *refLRU) contains(page int64) bool { return slices.Contains(r.pages, page) }

func (r *refLRU) flush() { r.pages = r.pages[:0] }

// TestFuzzPoolMatchesReferenceLRU drives the pool with a long random
// sequence of fetches, prefetches, and flushes — each allowed to settle
// before the next — and cross-checks residency against the reference after
// every step.
func TestFuzzPoolMatchesReferenceLRU(t *testing.T) {
	const (
		capacity = 32
		fileSize = 256
		steps    = 4000
	)
	w := newWorld(t, capacity)
	ref := newRefLRU(capacity)
	rng := rand.New(rand.NewSource(99))

	w.run(func(p *sim.Proc) {
		for step := 0; step < steps; step++ {
			switch op := rng.Intn(10); {
			case op < 6: // synchronous fetch
				page := rng.Int63n(fileSize)
				w.pool.FetchPage(p, w.file, page).Release()
				ref.touch(page)
			case op < 9: // prefetch, settled before the next op
				page := rng.Int63n(fileSize)
				issued := w.pool.Prefetch(w.file, page)
				p.Sleep(5 * sim.Millisecond)
				if issued {
					ref.touch(page)
				}
				// An already-resident page is NOT promoted by Prefetch
				// (only by access), matching the pool's semantics.
			case op == 9: // occasional flush
				w.pool.Flush()
				ref.flush()
			}

			if got, want := w.pool.Cached(), len(ref.pages); got != want {
				t.Fatalf("step %d: pool holds %d pages, reference %d", step, got, want)
			}
			// Spot-check membership agreement on a few random pages.
			for i := 0; i < 4; i++ {
				page := rng.Int63n(fileSize)
				if got, want := w.pool.Contains(w.file, page), ref.contains(page); got != want {
					t.Fatalf("step %d: Contains(%d) = %v, reference %v", step, page, got, want)
				}
			}
		}
	})

	// Full final sweep.
	for page := int64(0); page < fileSize; page++ {
		if got, want := w.pool.Contains(w.file, page), ref.contains(page); got != want {
			t.Fatalf("final: Contains(%d) = %v, reference %v", page, got, want)
		}
	}
}
