// Package buffer implements the database buffer pool: a fixed set of page
// frames with LRU replacement, pinning, asynchronous prefetch, and the
// residency statistics the optimizer consults.
//
// The pool tracks page *residency and timing*, not page bytes — table and
// index contents live in their own storage structures (see internal/table
// and internal/btree), while the pool decides which accesses cost an I/O.
// This mirrors what the paper's cost model needs from SQL Anywhere's pool:
// "statistics on how many table and index pages are currently cached".
package buffer

import (
	"cmp"
	"fmt"
	"slices"

	"pioqo/internal/disk"
	"pioqo/internal/obs"
	"pioqo/internal/obs/event"
	"pioqo/internal/sim"
)

// PageKey names a page globally: a file and a page number within it.
type PageKey struct {
	File disk.FileID
	Page int64
}

// Pool is a buffer pool over one disk manager's files. All methods must be
// called from simulation context; FetchPage additionally needs a process.
type Pool struct {
	env      *sim.Env
	capacity int

	frames map[PageKey]*frame
	lru    frame // sentinel of the ring of unpinned, loaded frames

	resident map[disk.FileID]int64 // loaded pages per file
	files    map[disk.FileID]*disk.File

	// inFlightWrites tracks outstanding write-backs so FlushDirty can wait
	// for durability.
	inFlightWrites *sim.WaitGroup

	// epoch counts residency changes (installs and evictions). Consumers
	// that cache residency-derived state — the optimizer's plan memo — use
	// it as a cheap invalidation token.
	epoch uint64

	Stats Stats

	// Cumulative registry mirrors, nil until Publish. Unlike Stats, these
	// never reset — per-query numbers come from registry snapshot diffs.
	obsHits, obsMisses, obsJoined, obsPrefetch, obsPrefetchPages, obsEvict, obsDirty, obsReadErr *obs.Counter
	obsCached                                                                                    *obs.Gauge

	// log receives frame-uninstall events (failed reads evicting their
	// frame and bumping the epoch); nil = disabled.
	log *event.Log
}

// Stats counts pool traffic since the last ResetStats.
type Stats struct {
	Hits        int64 // requests served without device I/O
	Misses      int64 // requests that had to issue or join a device read
	JoinedLoads int64 // misses that piggybacked on an in-flight read

	// PrefetchReads counts device operations issued by readahead (one per
	// Prefetch, one per PrefetchRun block read); PrefetchedPages counts the
	// pages those operations covered. Their ratio is the readahead
	// efficiency: pages moved per device op.
	PrefetchReads   int64
	PrefetchedPages int64

	Evictions   int64
	DirtyWrites int64 // write-backs issued for dirty frames
	ReadErrors  int64 // device reads that completed with an error
}

type frame struct {
	key     PageKey
	pins    int
	dirty   bool
	loading *sim.Completion // non-nil while the device read is in flight

	// prev and next link the frame into the pool's LRU ring. Both are
	// non-nil iff the frame is unpinned and loaded.
	prev, next *frame
}

// The LRU is an intrusive doubly-linked ring through the frames
// themselves, closed by the pool's sentinel frame: lru.next is the most
// recently used frame and lru.prev the least. Linking and unlinking touch
// only pointers already in the frames, so unpins allocate nothing.

// lruPush links f in as the most recently used frame.
func (p *Pool) lruPush(f *frame) {
	s := &p.lru
	f.prev, f.next = s, s.next
	s.next.prev = f
	s.next = f
}

// lruRemove unlinks f from the ring.
func (p *Pool) lruRemove(f *frame) {
	f.prev.next = f.next
	f.next.prev = f.prev
	f.prev, f.next = nil, nil
}

// NewPool returns a pool with room for capacity pages.
func NewPool(e *sim.Env, capacity int) *Pool {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: pool capacity %d", capacity))
	}
	p := &Pool{
		env:            e,
		capacity:       capacity,
		frames:         make(map[PageKey]*frame, capacity),
		resident:       make(map[disk.FileID]int64),
		files:          make(map[disk.FileID]*disk.File),
		inFlightWrites: sim.NewWaitGroup(e),
	}
	p.lru.prev, p.lru.next = &p.lru, &p.lru
	return p
}

// Capacity returns the pool size in pages.
func (p *Pool) Capacity() int { return p.capacity }

// Cached reports how many pages are currently loaded or loading.
func (p *Pool) Cached() int { return len(p.frames) }

// Resident reports how many pages of file f are currently in the pool —
// the statistic the optimizer uses to correct I/O estimates for warm data.
func (p *Pool) Resident(f *disk.File) int64 { return p.resident[f.ID()] }

// ResetStats zeroes the traffic counters. Published registry mirrors keep
// accumulating.
func (p *Pool) ResetStats() { p.Stats = Stats{} }

// Publish registers the pool's instruments in reg under the catalog's
// buffer.* names: cumulative counters mirroring Stats, plus a cached_pages
// gauge tracking residency over virtual time.
func (p *Pool) Publish(reg *obs.Registry) {
	p.obsHits = reg.Counter(obs.MetricBufferHits)
	p.obsMisses = reg.Counter(obs.MetricBufferMisses)
	p.obsJoined = reg.Counter(obs.MetricBufferJoinedLoads)
	p.obsPrefetch = reg.Counter(obs.MetricBufferPrefetchReads)
	p.obsPrefetchPages = reg.Counter(obs.MetricBufferPrefetchedPages)
	p.obsEvict = reg.Counter(obs.MetricBufferEvictions)
	p.obsDirty = reg.Counter(obs.MetricBufferDirtyWrites)
	p.obsReadErr = reg.Counter(obs.MetricBufferReadErrors)
	p.obsCached = reg.Gauge(obs.MetricBufferCachedPages)
	p.obsCached.Set(float64(len(p.frames)))
}

// SetEventLog installs (or, with nil, removes) the pool's event log.
func (p *Pool) SetEventLog(l *event.Log) { p.log = l }

// bump increments a registry mirror if the pool has been Published.
func bump(c *obs.Counter) {
	if c != nil {
		c.Inc()
	}
}

// trackCached refreshes the cached_pages gauge after residency changes.
func (p *Pool) trackCached() {
	if p.obsCached != nil {
		p.obsCached.Set(float64(len(p.frames)))
	}
}

// evictOne removes the least recently used unpinned frame, writing it back
// asynchronously first if dirty. It reports whether a frame was freed. The
// frame is reusable immediately — the page image is handed to the device
// queue, which is how real pools avoid stalling page allocation on
// write-back.
func (p *Pool) evictOne() bool {
	f := p.lru.prev
	if f == &p.lru {
		return false
	}
	if f.dirty {
		p.writeBack(f)
	}
	p.lruRemove(f)
	delete(p.frames, f.key)
	p.resident[f.key.File]--
	p.epoch++
	p.Stats.Evictions++
	bump(p.obsEvict)
	p.trackCached()
	return true
}

// writeBack issues the asynchronous device write for a dirty frame and
// clears the dirty bit.
func (p *Pool) writeBack(f *frame) {
	file := p.files[f.key.File]
	if file == nil {
		panic(fmt.Sprintf("buffer: dirty frame %v for unknown file", f.key))
	}
	f.dirty = false
	p.Stats.DirtyWrites++
	bump(p.obsDirty)
	p.inFlightWrites.Add(1)
	file.WritePage(f.key.Page).OnFire(p.inFlightWrites.Done)
}

// ensureRoom makes space for one more frame, evicting if needed. Running
// out of evictable frames is a sizing bug in the caller (too many pins or
// prefetches for the pool), and panics rather than deadlocking silently.
func (p *Pool) ensureRoom() {
	if len(p.frames) < p.capacity {
		return
	}
	if !p.evictOne() {
		panic(fmt.Sprintf("buffer: all %d frames pinned or loading", p.capacity))
	}
}

// install creates a loading frame for key backed by the read completion c.
func (p *Pool) install(key PageKey, c *sim.Completion) *frame {
	p.ensureRoom()
	f := &frame{key: key, loading: c}
	p.frames[key] = f
	p.resident[key.File]++
	p.epoch++
	p.trackCached()
	c.OnFire(func() {
		if c.Err() != nil {
			// The read failed: uninstall the frame so the page reads as
			// non-resident and a retry re-issues the device read. Fire runs
			// this callback before any waiter resumes, so waiters observe
			// the pool already consistent; they unpin their orphaned frame
			// themselves (FetchPageE's error path). f.loading stays set so
			// late joiners still see the frame as unusable.
			delete(p.frames, key)
			p.resident[key.File]--
			p.epoch++
			p.Stats.ReadErrors++
			bump(p.obsReadErr)
			p.log.Emit(event.EvFrameUninstall, event.NoQuery, key.Page, int64(p.epoch))
			p.trackCached()
			return
		}
		f.loading = nil
		if f.pins == 0 && f.next == nil {
			p.lruPush(f)
		}
	})
	return f
}

// pin marks the frame in use and removes it from the eviction list.
func (p *Pool) pin(f *frame) {
	f.pins++
	if f.next != nil {
		p.lruRemove(f)
	}
}

// Handle is a pinned page. Callers must Release exactly once.
type Handle struct {
	pool *Pool
	f    *frame
}

// Key returns the pinned page's identity.
func (h Handle) Key() PageKey { return h.f.key }

// MarkDirty flags the page as modified; eviction (or FlushDirty) will
// write it back to the device.
func (h Handle) MarkDirty() { h.f.dirty = true }

// Release unpins the page, making it evictable again.
func (h Handle) Release() {
	f := h.f
	if f.pins <= 0 {
		panic("buffer: release of unpinned page " + fmt.Sprint(f.key))
	}
	f.pins--
	if f.pins == 0 && f.loading == nil {
		h.pool.lruPush(f)
	}
}

// FetchPage returns the page pinned, blocking the process for the device
// read if the page is neither cached nor already being loaded. A read that
// fails (injected device fault) panics; fault-aware callers use FetchPageE.
func (p *Pool) FetchPage(proc *sim.Proc, file *disk.File, page int64) Handle {
	h, err := p.FetchPageE(proc, file, page)
	if err != nil {
		panic(fmt.Sprintf("buffer: read of %v page %d failed: %v", file.ID(), page, err))
	}
	return h
}

// FetchPageE is FetchPage with the device's verdict surfaced: if the read
// completes with an error the page is not pinned, the frame is gone from
// the pool (the failure's OnFire hook uninstalls it before any waiter
// resumes), and the error is returned for the executor's retry policy to
// handle. Processes that joined an in-flight load observe the same error.
func (p *Pool) FetchPageE(proc *sim.Proc, file *disk.File, page int64) (Handle, error) {
	p.files[file.ID()] = file
	key := PageKey{file.ID(), page}
	if f, ok := p.frames[key]; ok {
		if f.loading != nil {
			p.Stats.Misses++
			p.Stats.JoinedLoads++
			bump(p.obsMisses)
			bump(p.obsJoined)
			p.pin(f)
			c := f.loading
			proc.Wait(c)
			if err := c.Err(); err != nil {
				// The frame was uninstalled when the load failed; drop our
				// pin on the orphan without re-adding it to the LRU.
				f.pins--
				return Handle{}, err
			}
			return Handle{p, f}, nil
		}
		p.Stats.Hits++
		bump(p.obsHits)
		p.pin(f)
		return Handle{p, f}, nil
	}
	p.Stats.Misses++
	bump(p.obsMisses)
	c := file.ReadPage(page)
	f := p.install(key, c)
	p.pin(f)
	proc.Wait(c)
	if err := c.Err(); err != nil {
		f.pins--
		return Handle{}, err
	}
	return Handle{p, f}, nil
}

// Prefetch asynchronously loads a single page if it is not already present
// or in flight. It never blocks and reports whether a read was issued.
func (p *Pool) Prefetch(file *disk.File, page int64) bool {
	p.files[file.ID()] = file
	key := PageKey{file.ID(), page}
	if _, ok := p.frames[key]; ok {
		return false
	}
	p.Stats.PrefetchReads++
	p.Stats.PrefetchedPages++
	bump(p.obsPrefetch)
	bump(p.obsPrefetchPages)
	p.install(key, file.ReadPage(page))
	return true
}

// PrefetchRun asynchronously loads count consecutive pages with one large
// device read, skipping the whole run if every page is already present.
// Pages already resident within a partially-present run are re-covered by
// the block read (the transfer is contiguous either way), matching how
// block-based readahead behaves in practice.
func (p *Pool) PrefetchRun(file *disk.File, page int64, count int) bool {
	p.files[file.ID()] = file
	allPresent := true
	for i := int64(0); i < int64(count); i++ {
		if _, ok := p.frames[PageKey{file.ID(), page + i}]; !ok {
			allPresent = false
			break
		}
	}
	if allPresent {
		return false
	}
	c := file.ReadRun(page, count)
	p.Stats.PrefetchReads++
	p.Stats.PrefetchedPages += int64(count)
	bump(p.obsPrefetch)
	if p.obsPrefetchPages != nil {
		p.obsPrefetchPages.Add(int64(count))
	}
	for i := int64(0); i < int64(count); i++ {
		key := PageKey{file.ID(), page + i}
		if _, ok := p.frames[key]; ok {
			continue
		}
		p.install(key, c)
	}
	return true
}

// PrefetchRunTrimmed is PrefetchRun with overlap trimming: instead of
// re-covering pages another scan's readahead already brought (or is
// bringing) in, it issues one block read per *uncovered* gap in
// [page, page+count). With several unshared scans circulating the same
// file, this is what keeps their readahead windows from multiplying
// device work for bytes the pool already holds — the multi-query prefetch
// coordination path. It reports how many device reads were issued.
func (p *Pool) PrefetchRunTrimmed(file *disk.File, page int64, count int) int {
	p.files[file.ID()] = file
	issued := 0
	gap := int64(-1) // start of the current uncovered gap, -1 = none open
	flush := func(end int64) {
		if gap < 0 {
			return
		}
		n := int(end - gap)
		c := file.ReadRun(gap, n)
		p.Stats.PrefetchReads++
		p.Stats.PrefetchedPages += int64(n)
		bump(p.obsPrefetch)
		if p.obsPrefetchPages != nil {
			p.obsPrefetchPages.Add(int64(n))
		}
		for i := int64(0); i < int64(n); i++ {
			p.install(PageKey{file.ID(), gap + i}, c)
		}
		issued++
		gap = -1
	}
	for i := int64(0); i < int64(count); i++ {
		pg := page + i
		if _, ok := p.frames[PageKey{file.ID(), pg}]; ok {
			flush(pg)
			continue
		}
		if gap < 0 {
			gap = pg
		}
	}
	flush(page + int64(count))
	return issued
}

// Contains reports whether the page is loaded or loading.
func (p *Pool) Contains(file *disk.File, page int64) bool {
	_, ok := p.frames[PageKey{file.ID(), page}]
	return ok
}

// Loaded reports whether the page is present with its read complete — a
// fetch would neither touch the device nor block. Batched executors use it
// to decide whether deferred CPU debt must settle before the fetch.
func (p *Pool) Loaded(file *disk.File, page int64) bool {
	f, ok := p.frames[PageKey{file.ID(), page}]
	return ok && f.loading == nil
}

// Pinned reports the total pin count across all frames. After a query has
// fully released its handles — including on abort paths — it is zero; tests
// assert that to catch leaked pins.
func (p *Pool) Pinned() int {
	n := 0
	for _, f := range p.frames {
		n += f.pins
	}
	return n
}

// Discard drops one unpinned, loaded, clean frame — the cancellation path
// for speculative prefetch: a mispredicted readahead page is evicted
// immediately instead of aging out of the LRU, so a canceled speculation
// stops squatting on frames demand fetches could use. Pinned, loading, or
// dirty frames are left alone (an in-flight read completes into the frame
// either way; a pin or a dirty bit means the page stopped being
// speculative). Reports whether the frame was dropped.
func (p *Pool) Discard(file *disk.File, page int64) bool {
	key := PageKey{file.ID(), page}
	f, ok := p.frames[key]
	if !ok || f.pins > 0 || f.loading != nil || f.dirty {
		return false
	}
	if f.next != nil {
		p.lruRemove(f)
	}
	delete(p.frames, key)
	p.resident[key.File]--
	p.epoch++
	p.Stats.Evictions++
	bump(p.obsEvict)
	p.trackCached()
	return true
}

// Epoch returns a token that changes whenever pool residency changes.
// Equal epochs guarantee Resident and residency-derived cost estimates are
// unchanged; cached plans keyed on it invalidate automatically.
func (p *Pool) Epoch() uint64 { return p.epoch }

// Flush drops every unpinned, loaded frame — the "flush the memory buffer
// pool" step the paper performs before each experiment. Dirty frames are
// written back asynchronously on the way out. It reports how many frames
// were dropped.
func (p *Pool) Flush() int {
	n := 0
	for p.evictOne() {
		n++
	}
	return n
}

// FlushDirty writes back every dirty frame without evicting anything and
// blocks the process until all write-backs — including those issued
// earlier by evictions — are durable on the device (a checkpoint). The
// writes go out in (file, page) order, so a checkpoint's device schedule —
// and every runtime it feeds — repeats exactly from run to run.
func (p *Pool) FlushDirty(proc *sim.Proc) {
	var dirty []*frame
	for _, f := range p.frames {
		if f.dirty && f.loading == nil {
			dirty = append(dirty, f)
		}
	}
	slices.SortFunc(dirty, func(a, b *frame) int {
		if c := cmp.Compare(a.key.File, b.key.File); c != 0 {
			return c
		}
		return cmp.Compare(a.key.Page, b.key.Page)
	})
	for _, f := range dirty {
		p.writeBack(f)
	}
	proc.WaitFor(p.inFlightWrites)
}

// DirtyPages reports how many loaded frames are currently dirty.
func (p *Pool) DirtyPages() int {
	n := 0
	for _, f := range p.frames {
		if f.dirty {
			n++
		}
	}
	return n
}
