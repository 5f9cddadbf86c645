// Package exec implements the paper's four access methods — full table scan
// (FTS), index scan (IS), and their intra-query parallel versions (PFTS,
// PIS) — plus the per-worker table-page prefetching of §3.3, all evaluating
// the paper's probe query:
//
//	SELECT MAX(C1) FROM T WHERE C2 BETWEEN lo AND hi
//
// Operators run as simulation processes: they charge CPU time on a shared
// multi-core resource and perform page I/O through the buffer pool, so the
// device queue depth each method generates (the quantity the QDTT cost model
// prices) emerges from the execution structure rather than being asserted.
package exec

import (
	"fmt"

	"pioqo/internal/btree"
	"pioqo/internal/buffer"
	"pioqo/internal/device"
	"pioqo/internal/disk"
	"pioqo/internal/fault"
	"pioqo/internal/obs"
	"pioqo/internal/obs/event"
	"pioqo/internal/sim"
	"pioqo/internal/table"
)

// CPUCosts models per-operation CPU work in virtual time. The defaults are
// chosen so the CPU/I-O balance matches the paper's machine: one core
// saturates the HDD on 33-row pages, two cores saturate it on 500-row pages,
// and eight cores saturate well below the SSD bus on 500-row pages.
type CPUCosts struct {
	PerPage       sim.Duration // page latch + header work when a scan visits a page
	PerRow        sim.Duration // predicate evaluation + aggregation of one row (table scan)
	PerEntry      sim.Duration // processing one (key, row) entry in an index leaf
	PerRowFetch   sim.Duration // locating + evaluating one row reached through the index
	PerPrefetch   sim.Duration // issuing one asynchronous prefetch request
	WorkerStartup sim.Duration // spawning and coordinating one worker thread
}

// DefaultCPUCosts returns the calibrated defaults described above.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		PerPage:       10 * sim.Microsecond,
		PerRow:        150 * sim.Nanosecond,
		PerEntry:      100 * sim.Nanosecond,
		PerRowFetch:   1 * sim.Microsecond,
		PerPrefetch:   3 * sim.Microsecond,
		WorkerStartup: 100 * sim.Microsecond,
	}
}

// Context bundles the runtime an operator executes against.
type Context struct {
	Env   *sim.Env
	CPU   *sim.Resource // logical cores
	Pool  *buffer.Pool
	Dev   device.Device // for per-query I/O metering
	Costs CPUCosts

	// Tracer, when set, records a virtual-time span per operator (under
	// Spec.Span) and one track span per worker, each annotated with pages
	// fetched, rows matched, CPU time, and I/O wait. Nil disables tracing.
	Tracer *obs.Tracer

	// Reg, when set, receives engine-wide execution counters (exec.scans,
	// exec.rows_matched). Nil disables them.
	Reg *obs.Registry

	// Shares, when set, is the pool's scan-share registry: full scans
	// planned as shared (Spec.Shared) attach to their table's circulating
	// producer instead of demand-fetching. Nil disables scan sharing and
	// every scan takes the demand path.
	Shares *buffer.Shares

	// Log, when set, receives structured events for worker lifecycle and
	// fault retries, attributed to Spec.QID. Nil (the default) disables
	// emission at the cost of one pointer comparison per event site.
	Log *event.Log
}

// Method selects the access path family.
type Method int

const (
	// FullScan reads every heap page in order (FTS; PFTS when Degree > 1).
	FullScan Method = iota
	// IndexScan walks the C2 index and fetches qualifying rows' pages
	// (IS; PIS when Degree > 1).
	IndexScan
	// SortedIndexScan walks the index, sorts the qualifying row ids by
	// heap page, and fetches every needed page exactly once, in ascending
	// page order. This is the access method §3.1 of the paper describes
	// (DB2's hybrid join / sorted RID-list fetch) but could not evaluate
	// because SQL Anywhere lacks it; it is provided here as an extension.
	// It gives up index-key output order, which MAX/MIN/COUNT/SUM do not
	// need.
	SortedIndexScan
)

func (m Method) String() string {
	switch m {
	case FullScan:
		return "FTS"
	case IndexScan:
		return "IS"
	case SortedIndexScan:
		return "SortedIS"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// AggKind selects the aggregate computed over matching rows' C1 values.
type AggKind int

const (
	// AggMax is MAX(C1), the paper's probe aggregate (default).
	AggMax AggKind = iota
	// AggMin is MIN(C1).
	AggMin
	// AggCount is COUNT(*).
	AggCount
	// AggSum is SUM(C1).
	AggSum
)

func (k AggKind) String() string {
	switch k {
	case AggMax:
		return "MAX"
	case AggMin:
		return "MIN"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	default:
		return fmt.Sprintf("AggKind(%d)", int(k))
	}
}

// Governor is the resource-governance hook a broker lease exposes to the
// executor: the scan reports each worker starting and exiting, so a
// winding-down query's queue-depth credits can be re-brokered to queued
// queries while its stragglers finish. Implemented by broker.Lease.
type Governor interface {
	StartWorker()
	EndWorker()
}

// Spec describes one execution of the probe query.
type Spec struct {
	Table table.Table
	Index *btree.Index // required for IndexScan
	Lo,
	Hi int64 // predicate: Lo <= C2 <= Hi
	Method Method
	Degree int     // worker count; 1 = non-parallel
	Agg    AggKind // aggregate over C1; default AggMax

	// FullScan knobs: the scan reads BlockPages-page runs and keeps up to
	// PrefetchBlocks of them in flight ahead of the workers ("prefetching up
	// to n blocks ahead ... a large block consisting of several consecutive
	// pages is read at a time", §2). BlockPages <= 1 disables block reads.
	BlockPages     int
	PrefetchBlocks int

	// IndexScan knob: each worker prefetches up to PrefetchPerWorker table
	// pages referenced by its current leaf (§3.3). 0 disables prefetching,
	// giving the paper's baseline PIS whose queue depth equals Degree.
	PrefetchPerWorker int

	// Emit, when set, receives every matching row's id and values instead
	// of the built-in aggregation (Result.Value is then unset; RowsMatched
	// still counts). It is called from worker context with the simulation
	// serialized, so it needs no locking. Composite operators (joins,
	// group-by) use it to consume scan output.
	Emit func(rowID int64, row table.Row)

	// Update, when set, is applied to each matching row's id and the
	// holding page is marked dirty in the buffer pool — the write-back
	// happens on eviction or checkpoint. This is the UPDATE operator's
	// hook; it composes with Emit and the aggregates.
	Update func(rowID int64)

	// Span, when Context.Tracer is set, is the parent the operator span is
	// opened under — typically the query span opened by the caller. Nil
	// makes the operator span a root.
	Span *obs.Span

	// Gov, when set, is notified as this scan's workers start and exit.
	// Nil means ungoverned (single-query execution).
	Gov Governor

	// PoolShare, when positive, is the buffer-pool page reservation leased
	// to this scan: the readahead and prefetch clamps budget against it
	// instead of the whole pool, so concurrent queries' prefetch windows
	// cannot collectively exhaust the shared pool. Zero means ungoverned.
	PoolShare int

	// Ctl, when set, is the query's abort switch: workers and drivers check
	// it at batch boundaries (page, leaf, phase) and wind down cleanly —
	// releasing pins, exiting, reporting to the governor — when it trips.
	// It is also how injected device faults surface: an unrecoverable fetch
	// cancels the control and Result.Err carries the cause. Nil means
	// non-abortable execution where a device fault panics (the pre-fault
	// layer behavior, still used by calibration and composite operators).
	Ctl *fault.Control

	// Retry bounds the response to injected device read faults when Ctl is
	// set; the zero value means fault.DefaultRetry.
	Retry fault.RetryPolicy

	// QID attributes this scan's events in the engine event log to its
	// query (event.NoQuery / 0 for unattributed standalone executions).
	QID int64

	// Progress, when set, is incremented once per page the scan's workers
	// fetch (prefetches excluded) — the live-progress counter a Submission
	// exposes as pages processed. Increments are pure Go-side mutation:
	// no events, no randomness, no allocation. For a shared scan it counts
	// pages delivered to this consumer, not the producer's position.
	Progress *int64

	// Shared routes a FullScan through the circulating-scan consumer path:
	// the scan attaches to Context.Shares' producer for its table and
	// consumes pushed page batches over one lap. Set by the optimizer when
	// the attach path priced cheapest; ignored (demand path) when
	// Context.Shares is nil or the spec has row hooks.
	Shared bool

	// CoordPrefetch switches the demand full scan's readahead to the
	// pool's trimmed runs, which skip pages other scans' readahead already
	// covers — the multi-query prefetch coordination for concurrent
	// *unshared* scans of one file. Off (the default) preserves the exact
	// single-query device schedule.
	CoordPrefetch bool

	// Tune, when set, makes the scan elastic: workers consult the tuner at
	// batch boundaries and the fleet grows or shrinks to its target (demand
	// full scans and index scans; sorted index scans and shared riders stay
	// static). Degree then names the *initial* fleet; growth is bounded by
	// Tune.MaxDegree and the readahead clamps budget against that cap. Nil
	// (the default) is the static executor, byte-identical to pre-adaptive
	// runs.
	Tune Tuner
}

// aborted reports whether the query's control has tripped. Nil-safe.
func (s *Spec) aborted() bool { return s.Ctl.Aborted() }

// poolCapacity is the pool capacity this scan's clamps budget against: the
// lease's page reservation when governed, the whole pool otherwise.
func (s *Spec) poolCapacity(ctx *Context) int {
	c := ctx.Pool.Capacity()
	if s.PoolShare > 0 && s.PoolShare < c {
		c = s.PoolShare
	}
	return c
}

// startWorker/endWorker report one worker's lifetime to the governor and
// the event log.
func (s *Spec) startWorker(ctx *Context, w int) {
	ctx.Log.Emit(event.EvWorkerStart, s.QID, int64(w), 0)
	if s.Gov != nil {
		s.Gov.StartWorker()
	}
}

func (s *Spec) endWorker(ctx *Context, w int) {
	ctx.Log.Emit(event.EvWorkerExit, s.QID, int64(w), 0)
	if s.Gov != nil {
		s.Gov.EndWorker()
	}
}

// deliver routes one matching row to the emit hook or the aggregate.
func (s *Spec) deliver(a *agg, h buffer.Handle, rowID int64, row table.Row) {
	if s.Update != nil {
		s.Update(rowID)
		h.MarkDirty()
	}
	if s.Emit != nil {
		s.Emit(rowID, row)
		a.rows++
		return
	}
	a.add(row.C1)
}

// deliverPage routes one page's worth of rows through the row hooks:
// rows[i] is row number firstRow+i, all resident on the pinned page h.
// Scans without hooks fold pages through Table.MatchingC1 and agg.addC1s
// instead.
func (s *Spec) deliverPage(a *agg, h buffer.Handle, firstRow int64, rows []table.Row) {
	for i, row := range rows {
		if row.C2 >= s.Lo && row.C2 <= s.Hi {
			s.deliver(a, h, firstRow+int64(i), row)
		}
	}
}

// withDefaults normalizes zero values.
func (s Spec) withDefaults() Spec {
	if s.Degree <= 0 {
		s.Degree = 1
	}
	if s.Method == FullScan {
		if s.BlockPages == 0 {
			s.BlockPages = 64
		}
		if s.PrefetchBlocks == 0 {
			s.PrefetchBlocks = 4
		}
	}
	return s
}

// Result reports one execution.
type Result struct {
	// Value is the aggregate over matching rows' C1 (MAX by default),
	// valid when Found. COUNT(*) is always Found, reporting 0 on an empty
	// match, per SQL semantics.
	Value       int64
	Found       bool
	RowsMatched int64
	Runtime     sim.Duration

	// Err is why the query aborted (cancellation, deadline, unrecoverable
	// device fault), or nil on a complete scan. An aborted Result's Value
	// and RowsMatched reflect only the work done before the abort.
	Err error

	IO   device.Summary // device traffic during the query
	Pool buffer.Stats   // buffer pool traffic during the query
}

// Execute runs the query described by spec to completion on ctx's
// environment and returns the result. Device and pool statistics are scoped
// to this execution; buffer pool *contents* are left as the query leaves
// them (flush explicitly between runs to model a cold cache).
func Execute(ctx *Context, spec Spec) Result {
	var res Result
	ctx.Dev.Metrics().Reset()
	ctx.Pool.ResetStats()
	start := ctx.Env.Now()
	ctx.Env.Go("query", func(p *sim.Proc) {
		res = RunScan(p, ctx, spec)
	})
	ctx.Env.Run()
	res.Runtime = sim.Duration(ctx.Env.Now() - start)
	res.IO = ctx.Dev.Metrics().Snapshot()
	res.Pool = ctx.Pool.Stats
	return res
}

// RunScan executes the query from within an existing process and returns
// when the scan has finished. Runtime and I/O metering are left to the
// caller (see Execute). With a Context.Tracer, the scan records an operator
// span (under spec.Span) with per-worker child spans on their own tracks.
func RunScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	spec = spec.withDefaults()
	op := ctx.Tracer.Start(spec.Span, spec.Method.String(),
		obs.KV("degree", spec.Degree),
		obs.KV("agg", spec.Agg.String()))
	spec.Span = op

	var res Result
	if spec.aborted() {
		res.Err = spec.Ctl.Err()
		op.SetAttr("err", res.Err.Error())
		op.End()
		return res
	}
	if spec.Tune != nil {
		// Completion and abort alike cancel outstanding speculation and
		// detach the controller.
		defer spec.Tune.FinishScan()
	}
	switch spec.Method {
	case FullScan:
		if spec.sharable(ctx) {
			res = runSharedFullScan(p, ctx, spec)
		} else {
			res = runFullScan(p, ctx, spec)
		}
	case IndexScan:
		if spec.Index == nil {
			panic("exec: IndexScan without an index")
		}
		res = runIndexScan(p, ctx, spec)
	case SortedIndexScan:
		if spec.Index == nil {
			panic("exec: SortedIndexScan without an index")
		}
		res = runSortedIndexScan(p, ctx, spec)
	default:
		panic("exec: unknown method " + spec.Method.String())
	}

	if res.Err = spec.Ctl.Err(); res.Err != nil {
		op.SetAttr("err", res.Err.Error())
	}
	op.SetAttr("rows", res.RowsMatched)
	op.End()
	if ctx.Reg != nil {
		ctx.Reg.Counter(obs.MetricExecScans).Inc()
		ctx.Reg.Counter(obs.MetricExecRowsMatched).Add(res.RowsMatched)
	}
	return res
}

// meter measures one worker's activity for its span: pages fetched through
// the pool, virtual time blocked on those fetches, and virtual time spent
// acquiring and holding CPU. It wraps the pool and CPU calls the workers
// make, so the split is measured where the blocking happens.
type meter struct {
	ctx   *Context
	span  *obs.Span
	pages int64
	io    sim.Duration // time blocked in FetchPage (device + join waits)
	cpu   sim.Duration // time queueing for and holding the CPU resource
}

// newMeter opens a track span for one worker under parent. With a nil
// tracer the meter still works; it just has no span to annotate.
func newMeter(ctx *Context, parent *obs.Span, name string) *meter {
	return &meter{ctx: ctx, span: ctx.Tracer.StartTrack(parent, name)}
}

func (m *meter) fetch(wp *sim.Proc, f *disk.File, page int64) buffer.Handle {
	t0 := m.ctx.Env.Now()
	h := m.ctx.Pool.FetchPage(wp, f, page)
	m.io += sim.Duration(m.ctx.Env.Now() - t0)
	m.pages++
	return h
}

// finish annotates and closes the worker span.
func (m *meter) finish(a *agg) {
	if m.span == nil {
		return
	}
	m.span.SetAttr("pages", m.pages)
	m.span.SetAttr("rows", a.rows)
	m.span.SetAttr("cpu", m.cpu)
	m.span.SetAttr("io_wait", m.io)
	m.span.End()
}

// agg accumulates one aggregate over C1 plus the matched-row count.
type agg struct {
	kind  AggKind
	val   int64
	found bool
	rows  int64
}

func (a *agg) add(c1 int64) {
	switch a.kind {
	case AggMax:
		if !a.found || c1 > a.val {
			a.val = c1
		}
	case AggMin:
		if !a.found || c1 < a.val {
			a.val = c1
		}
	case AggSum:
		a.val += c1
	case AggCount:
		a.val++
	}
	a.found = true
	a.rows++
}

// addC1s folds the C1 values of matching rows into the accumulator,
// equivalent to calling add per value but with the aggregate switch hoisted
// out of the loop.
func (a *agg) addC1s(vals []int64) {
	if len(vals) == 0 {
		return
	}
	switch a.kind {
	case AggMax:
		v := a.val
		if !a.found {
			v = vals[0]
		}
		for _, c := range vals {
			if c > v {
				v = c
			}
		}
		a.val = v
	case AggMin:
		v := a.val
		if !a.found {
			v = vals[0]
		}
		for _, c := range vals {
			if c < v {
				v = c
			}
		}
		a.val = v
	case AggSum:
		var sum int64
		for _, c := range vals {
			sum += c
		}
		a.val += sum
	case AggCount:
		a.val += int64(len(vals))
	}
	a.found = true
	a.rows += int64(len(vals))
}

func (a *agg) merge(b agg) {
	if b.found {
		switch a.kind {
		case AggMax:
			if !a.found || b.val > a.val {
				a.val = b.val
			}
		case AggMin:
			if !a.found || b.val < a.val {
				a.val = b.val
			}
		case AggSum, AggCount:
			a.val += b.val
		}
		a.found = true
	}
	a.rows += b.rows
}

// result converts an accumulator into a Result, applying SQL semantics:
// COUNT(*) of an empty match is 0, not NULL.
func (a agg) result() Result {
	if a.kind == AggCount && !a.found {
		return Result{Value: 0, Found: true}
	}
	return Result{Value: a.val, Found: a.found, RowsMatched: a.rows}
}

// clampReadahead bounds the full-scan readahead window so that
// prefetched-but-unconsumed frames plus the workers' pins can never exhaust
// the pool: at most half the pool, less one pinned page per worker, may be
// tied up in the block window. Both the block size and the number of
// in-flight blocks are clamped against that single window, so
// BlockPages·PrefetchBlocks + Degree ≤ Capacity/2 holds whenever the window
// can accommodate a block at all; a pool too small for any readahead
// (window < 2) degenerates to BlockPages = 1, which disables block reads.
func clampReadahead(capacity, degree, blockPages, prefetchBlocks int) (int, int) {
	if blockPages <= 1 {
		return blockPages, prefetchBlocks
	}
	window := capacity/2 - degree
	if window < 1 {
		window = 1
	}
	if blockPages > window {
		blockPages = window
	}
	if blockPages > 1 && prefetchBlocks > window/blockPages {
		prefetchBlocks = window / blockPages
		if prefetchBlocks < 1 {
			prefetchBlocks = 1
		}
	}
	return blockPages, prefetchBlocks
}

// runFullScan implements FTS/PFTS: an asynchronous block prefetcher stays
// up to PrefetchBlocks block-reads ahead while Degree workers consume heap
// pages in order, each evaluating every row on the page.
func runFullScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table
	pages := t.Pages()
	file := t.File()
	rpp := t.RowsPerPage()

	nextPage := int64(0) // shared work queue: next unclaimed heap page

	// An elastic scan clamps its readahead geometry against the growth cap,
	// not the initial degree: the block layout is fixed for the scan's
	// lifetime, so it must already leave room for a fully grown fleet's pins.
	fl := newFleet(&spec)
	clampDegree := spec.Degree
	if fl != nil && fl.max > clampDegree {
		clampDegree = fl.max
	}
	spec.BlockPages, spec.PrefetchBlocks = clampReadahead(
		spec.poolCapacity(ctx), clampDegree, spec.BlockPages, spec.PrefetchBlocks)

	if spec.BlockPages > 1 {
		// Flow-control window: the prefetcher stays at most PrefetchBlocks
		// block-reads ahead of the hindmost block the workers have begun
		// consuming. A plain credit counter (issued − reached) avoids any
		// ordering assumptions between prefetcher and workers. An elastic
		// scan re-evaluates the window at every issue against the live
		// degree (liveWindow) — the clampReadahead fix for adaptively grown
		// fleets on tiny pools; a static scan's window is the plan-time
		// constant, unchanged.
		window := func() int64 { return int64(spec.PrefetchBlocks) }
		if fl != nil {
			capacity := spec.poolCapacity(ctx)
			window = func() int64 {
				return int64(liveWindow(capacity, fl.live, spec.BlockPages, spec.PrefetchBlocks))
			}
		}
		blocks := (pages + int64(spec.BlockPages) - 1) / int64(spec.BlockPages)
		reached := make([]bool, blocks)
		var issued, reachedCount int64
		var wakeup *sim.Completion
		ctx.Env.Go("fts-prefetcher", func(pf *sim.Proc) {
			ps := ctx.Tracer.StartTrack(spec.Span, "fts-prefetcher",
				obs.KV("blocks", blocks), obs.KV("block_pages", spec.BlockPages))
			for b := int64(0); b < blocks; b++ {
				for issued-reachedCount >= window() && !spec.aborted() {
					w := window()
					if nb := b + w; spec.Tune != nil && nb < blocks &&
						w < int64(spec.PrefetchBlocks) {
						// A live window squeezed below the planned one (a
						// grown fleet's pins ate into it) is the next-stripe
						// guess: the stripe just past the window is a block
						// flow control dropped, offered to the speculator,
						// which pre-issues it only within its confidence and
						// pool budget. The prefetcher itself reads block b
						// the moment the window opens, so the guess must
						// reach past the window. A wrong guess (abort) is
						// canceled; a right one overlaps the stall this park
						// represents, and the trimmed run issue below skips
						// whatever the speculator already landed. A healthy
						// full-width window gets no speculation — the runs
						// it issues already saturate the device, and
						// out-of-band reads would only fragment them.
						start := nb * int64(spec.BlockPages)
						count := spec.BlockPages
						if start+int64(count) > pages {
							count = int(pages - start)
						}
						spec.Tune.SpeculateRun(file, start, count)
					}
					wakeup = sim.NewCompletion(ctx.Env)
					pf.Wait(wakeup)
				}
				// An aborted scan's workers stop claiming blocks, so the
				// prefetcher would otherwise park forever on its flow-control
				// window; it stands down instead.
				if spec.aborted() {
					break
				}
				start := b * int64(spec.BlockPages)
				count := spec.BlockPages
				if start+int64(count) > pages {
					count = int(pages - start)
				}
				// Tuned scans trim like coordinated ones: the speculator may
				// have landed part of this run already, and re-reading it
				// would double the device traffic speculation saved.
				if spec.CoordPrefetch || spec.Tune != nil {
					ctx.Pool.PrefetchRunTrimmed(file, start, count)
				} else {
					ctx.Pool.PrefetchRun(file, start, count)
				}
				issued++
			}
			ps.End()
		})
		// Claiming the first page of a block wakes the prefetcher — a
		// device-coupled action, so the claimer settles its CPU debt first,
		// pinning the wakeup to the row-at-a-time schedule's instant.
		// Claims within an already-reached block stay debt-deferred. The
		// settle blocks, so another worker can reach the same block while
		// this one sleeps — the re-check keeps each block counted once,
		// which the prefetcher's credit flow control depends on.
		onClaim := func(wp *sim.Proc, bud *cpuBudget, page int64) {
			b := page / int64(spec.BlockPages)
			if !reached[b] {
				bud.settle(wp)
				if !reached[b] {
					reached[b] = true
					reachedCount++
					if wakeup != nil && !wakeup.Fired() {
						wakeup.Fire()
					}
				}
			}
		}
		res := runFullScanWorkers(p, ctx, spec, fl, &nextPage, onClaim, rpp)
		// On abort the prefetcher may be parked on its flow-control window
		// with no worker left to wake it; one final fire lets it observe the
		// abort and exit. A completed scan's wakeups have all fired already,
		// so this never adds events to a healthy run.
		if wakeup != nil && !wakeup.Fired() {
			wakeup.Fire()
		}
		return res
	}
	return runFullScanWorkers(p, ctx, spec, fl, &nextPage, nil, rpp)
}

func runFullScanWorkers(p *sim.Proc, ctx *Context, spec Spec, fl *fleet, nextPage *int64, onClaim func(*sim.Proc, *cpuBudget, int64), rpp int) Result {
	t := spec.Table
	pages := t.Pages()
	file := t.File()

	results := newAggs(spec.Agg, fl.slots(spec.Degree))
	wg := sim.NewWaitGroup(ctx.Env)
	worker := func(w int) func(*sim.Proc) {
		return func(wp *sim.Proc) {
			defer wg.Done()
			retired := false
			if fl != nil {
				defer func() { fl.exit(retired) }()
			}
			spec.startWorker(ctx, w)
			defer spec.endWorker(ctx, w)
			m := newMeter(ctx, spec.Span, fmt.Sprintf("fts-w%d", w))
			defer m.finish(&results[w])
			bud := newBudget(ctx, m)
			defer bud.settle(wp)
			if spec.Degree > 1 || w >= spec.Degree {
				bud.charge(ctx.Costs.WorkerStartup)
			}
			var rowBuf []table.Row
			var c1Buf []int64
			for {
				// The page is the abort — and retune — quantum: a tripped
				// control stops the worker here, before it claims more work,
				// and an elastic fleet grows or retires here.
				if spec.aborted() {
					return
				}
				if fl.tick() {
					retired = true
					return
				}
				page := *nextPage
				if page >= pages {
					if fl != nil {
						fl.done = true
					}
					return
				}
				*nextPage = page + 1
				if onClaim != nil {
					onClaim(wp, bud, page)
				}
				h, ok := bud.fetchRetry(wp, &spec, file, page)
				if !ok {
					return
				}
				firstRow := page * int64(rpp)
				lastRow := firstRow + int64(rpp)
				if lastRow > t.Rows() {
					lastRow = t.Rows()
				}
				bud.charge(ctx.Costs.PerPage +
					sim.Duration(lastRow-firstRow)*ctx.Costs.PerRow)
				if spec.Update == nil && spec.Emit == nil {
					c1Buf = t.MatchingC1(firstRow, lastRow, spec.Lo, spec.Hi, c1Buf)
					results[w].addC1s(c1Buf)
				} else {
					rowBuf = t.RowsAt(firstRow, lastRow, rowBuf)
					spec.deliverPage(&results[w], h, firstRow, rowBuf)
				}
				// One page is the batch quantum: settling here keeps workers
				// interleaving on the CPU at page granularity (deferring
				// across a whole prefetched block would serialize work the
				// row-at-a-time schedule ran Degree-wide), and releasing
				// after the settle preserves the old pin window.
				bud.settle(wp)
				h.Release()
			}
		}
	}
	if fl != nil {
		fl.spawn = func(w int) {
			wg.Add(1)
			ctx.Env.Go(fmt.Sprintf("fts-w%d", w), worker(w))
		}
		fl.start(spec.Degree)
	} else {
		for w := 0; w < spec.Degree; w++ {
			wg.Add(1)
			ctx.Env.Go(fmt.Sprintf("fts-w%d", w), worker(w))
		}
	}
	p.WaitFor(wg)
	return mergeAggs(spec.Agg, results)
}

// newAggs returns one accumulator per worker, all of the given kind.
func newAggs(kind AggKind, n int) []agg {
	out := make([]agg, n)
	for i := range out {
		out[i].kind = kind
	}
	return out
}

// mergeAggs folds per-worker accumulators into a Result.
func mergeAggs(kind AggKind, results []agg) Result {
	total := agg{kind: kind}
	for _, a := range results {
		total.merge(a)
	}
	return total.result()
}

// runIndexScan implements IS/PIS: one descent from the root locates the
// qualifying entry range, which is split into Degree contiguous sub-ranges,
// one per worker. Each worker walks its sub-range leaf by leaf: it reads
// the leaf page, optionally prefetches up to PrefetchPerWorker of the
// referenced table pages ahead (never across its current leaf boundary, per
// §3.3), and fetches each row's page to evaluate it.
//
// At the paper's scale (qualifying leaves ≫ workers) entry-range splitting
// behaves exactly like the paper's leaf-at-a-time distribution; at reduced
// scale it additionally parallelizes ranges narrower than a worker-count of
// leaves, with the effective parallelism still capped by the matching-row
// count — the paper's noted exception for very selective queries.
func runIndexScan(p *sim.Proc, ctx *Context, spec Spec) Result {
	t := spec.Table
	x := spec.Index
	rpp := t.RowsPerPage()

	// Clamp per-worker prefetch so in-flight prefetched frames plus worker
	// pins can never exhaust the pool (or the lease's share of it). An
	// elastic scan clamps against its growth cap — the degree the fleet may
	// reach, not the one it starts at.
	fl := newFleet(&spec)
	if spec.PrefetchPerWorker > 0 {
		clampDegree := spec.Degree
		if fl != nil && fl.max > clampDegree {
			clampDegree = fl.max
		}
		if budget := spec.poolCapacity(ctx)/2/clampDegree - 1; spec.PrefetchPerWorker > budget {
			spec.PrefetchPerWorker = budget
			if spec.PrefetchPerWorker < 0 {
				spec.PrefetchPerWorker = 0
			}
		}
	}

	// Root-to-leaf descent: internal pages are read through the pool and
	// are typically resident after the first query. The descent runs on the
	// driver, so its retries go through a throwaway budget.
	dbud := newBudget(ctx, nil)
	for _, pg := range x.DescentPath() {
		if spec.aborted() {
			return Result{}
		}
		h, ok := dbud.fetchRetry(p, &spec, x.File(), pg)
		if !ok {
			return Result{}
		}
		useCPU(p, ctx, ctx.Costs.PerPage)
		h.Release()
	}

	startPos, endPos := x.SearchGE(spec.Lo), x.SearchGT(spec.Hi)
	if startPos >= endPos {
		return agg{kind: spec.Agg}.result()
	}
	if fl != nil {
		return runIndexScanElastic(p, ctx, spec, fl, startPos, endPos, rpp)
	}
	total := endPos - startPos
	chunk := (total + int64(spec.Degree) - 1) / int64(spec.Degree)

	results := newAggs(spec.Agg, spec.Degree)
	wg := sim.NewWaitGroup(ctx.Env)
	for w := 0; w < spec.Degree; w++ {
		w := w
		posLo := startPos + int64(w)*chunk
		posHi := posLo + chunk
		if posHi > endPos {
			posHi = endPos
		}
		if posLo >= posHi {
			continue
		}
		wg.Add(1)
		ctx.Env.Go(fmt.Sprintf("pis-w%d", w), func(wp *sim.Proc) {
			defer wg.Done()
			spec.startWorker(ctx, w)
			defer spec.endWorker(ctx, w)
			m := newMeter(ctx, spec.Span, fmt.Sprintf("pis-w%d", w))
			defer m.finish(&results[w])
			bud := newBudget(ctx, m)
			defer bud.settle(wp)
			if spec.Degree > 1 {
				bud.charge(ctx.Costs.WorkerStartup)
			}
			var buf, matches []btree.Entry
			pos := posLo
			for pos < posHi {
				// The leaf batch is the abort quantum for PIS workers.
				if spec.aborted() {
					return
				}
				// One iteration is the §3.3 I/O batch: a leaf read plus the
				// bounded prefetch-and-fetch of its table pages. Span it only
				// in detailed traces — at realistic scales a query touches
				// thousands of leaves.
				var ls *obs.Span
				if ctx.Tracer.Detailed() {
					ls = ctx.Tracer.Start(m.span, "leaf-batch")
				}
				leaf, slot := x.LeafOf(pos)
				lh, ok := bud.fetchRetry(wp, &spec, x.File(), x.LeafPage(leaf))
				if !ok {
					ls.End()
					return
				}
				buf = x.LeafEntries(leaf, buf)
				take := len(buf) - slot
				if rem := posHi - pos; int64(take) > rem {
					take = int(rem)
				}
				matches = append(matches[:0], buf[slot:slot+take]...)
				bud.charge(ctx.Costs.PerPage +
					sim.Duration(len(matches))*ctx.Costs.PerEntry)
				lh.Release()

				prefetched := 0
				for i, e := range matches {
					// Keep up to PrefetchPerWorker table pages in flight,
					// clamped at this leaf's last reference. Issuing an
					// asynchronous read costs CPU — the reason the paper
					// finds one worker prefetching n does not quite match n
					// workers.
					for prefetched < i+spec.PrefetchPerWorker && prefetched < len(matches) {
						bud.prefetch(wp, t.File(),
							table.PageOf(matches[prefetched].Row, rpp))
						prefetched++
					}
					th, ok := bud.fetchRetry(wp, &spec, t.File(), table.PageOf(e.Row, rpp))
					if !ok {
						ls.End()
						return
					}
					bud.charge(ctx.Costs.PerRowFetch)
					row := t.RowAt(e.Row)
					if row.C2 >= spec.Lo && row.C2 <= spec.Hi {
						spec.deliver(&results[w], th, e.Row, row)
					}
					th.Release()
				}
				// The leaf batch is the settle quantum — without it a fully
				// warm scan would defer the whole range into one giant Use.
				bud.settle(wp)
				ls.SetAttr("entries", take)
				ls.End()
				pos += int64(take)
			}
		})
	}
	p.WaitFor(wg)
	return mergeAggs(spec.Agg, results)
}
