package main

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/metrics"
	"time"

	"pioqo"
)

// opResult is what one op returned, as the benchmark sees it from outside.
type opResult struct {
	lat  time.Duration // virtual: admission wait + runtime
	wait time.Duration // virtual admission wait (Submit only)
	ans  answer
	err  error

	hasPlan  bool // a single scan plan (Query, Submit, Update, GROUP BY)
	plan     pioqo.Plan
	runtime  time.Duration
	parallel bool  // the plan (or either join side) has Degree > 1
	examined int64 // heap rows examined, from the plan method (traced runs)
	shared   bool
	hashJoin bool
	joinRows int64 // build + probe rows
}

// repResult is one repetition: a fresh set-up followed by the measured
// phase over the scenario's op list.
type repResult struct {
	traced bool

	setup      time.Duration
	createHost time.Duration
	calibHost  time.Duration
	calibReads int64

	measured  time.Duration // host time of the measured phase
	virt      time.Duration // virtual time of the measured phase, summed over systems
	heapBytes uint64        // larger of the live heaps after set-up and after the measured phase

	// results is dropped once the repetition is reduced to ops, classes
	// and (traced) layers, so earlier repetitions do not count in a later
	// one's live heap.
	results  []opResult
	ops      int
	classes  [numClasses]classStats
	layers   map[string]metric
	checksum uint64

	// errors counts ops that returned an error, exhausted those of them
	// whose injected read faults outlasted the retry policy; mismatches
	// counts answers the oracle rejected. The first of each is described.
	errors, exhausted, mismatches int
	firstError, firstMismatch     string

	// Engine counters over the measured phase, summed over systems; gauges
	// are time-weighted means over the phase.
	counters map[string]int64
	gauges   map[string]float64
	planner  pioqo.PlannerStats
	faults   pioqo.FaultStats
	hedges   pioqo.HedgeStats

	gcCPU, totalCPU float64 // runtime/metrics CPU seconds over the measured phase
	allocBytes      uint64

	// Traced reps only: pages fetched (buffer hits + misses) inside the
	// execute / drain spans.
	execPages int64
}

// runner drives one scenario against freshly built systems.
type runner struct {
	sc *scenario
	tr *tracer

	systems []*pioqo.System
	tables  []*pioqo.Table
	opts    []pioqo.QueryOption // per-op options of serial Query ops
	ctx     context.Context

	// execPages counts pages fetched (buffer hits + misses) inside the
	// traced execute and drain spans.
	execPages int64

	// armed is the fault schedule installed on every system; replaced
	// accumulates the fault counters of schedules since replaced.
	armed    *pioqo.FaultSchedule
	replaced pioqo.FaultStats
}

// arm installs the fault schedule op o runs under, if it differs from the
// armed one. InjectFaults restarts the fault counters, so the outgoing
// schedule's counts are kept first.
func (r *runner) arm(o op) {
	want := r.sc.faults
	if o.kind == opGroupBy && r.sc.groupByFaults != nil {
		want = r.sc.groupByFaults
	}
	if want == r.armed {
		return
	}
	for _, sys := range r.systems {
		fs := sys.FaultStats()
		r.replaced.Errors, r.replaced.Stragglers = r.replaced.Errors+fs.Errors, r.replaced.Stragglers+fs.Stragglers
		sys.InjectFaults(*want)
	}
	r.armed = want
}

// stats sums the planner, fault and hedge counters over the systems; the
// fault counters include those of schedules since replaced.
func (r *runner) stats() (pioqo.PlannerStats, pioqo.FaultStats, pioqo.HedgeStats) {
	var p pioqo.PlannerStats
	f := r.replaced
	var h pioqo.HedgeStats
	for _, sys := range r.systems {
		ps, fs, hs := sys.PlannerStats(), sys.FaultStats(), sys.HedgeStats()
		p.MemoHits, p.MemoMisses = p.MemoHits+ps.MemoHits, p.MemoMisses+ps.MemoMisses
		f.Errors, f.Stragglers = f.Errors+fs.Errors, f.Stragglers+fs.Stragglers
		h.Issued, h.Wins = h.Issued+hs.Issued, h.Wins+hs.Wins
	}
	return p, f, h
}

func newRunner(sc *scenario, tr *tracer) *runner {
	r := &runner{sc: sc, tr: tr, ctx: context.Background()}
	if sc.retry != nil {
		r.opts = append(r.opts, pioqo.WithRetry(*sc.retry))
	}
	return r
}

// setup builds the systems and tables, calibrates and runs the warm-up ops
// (the first of which arms any fault schedule). It is what setup_s times.
func (r *runner) setup(res *repResult) error {
	tr := r.tr
	root := tr.begin("setup", -1, -1, nil)
	defer tr.end(root, nil)
	for _, cfg := range r.sc.configs {
		r.systems = append(r.systems, pioqo.New(cfg))
	}
	for _, t := range r.sc.tables {
		sys := r.systems[t.sys]
		id := tr.begin("create_table", root, -1, sys)
		t0 := time.Now()
		tab, err := sys.CreateTable(t.name, t.rows, t.rpp, t.options()...)
		res.createHost += time.Since(t0)
		tr.end(id, sys)
		if err != nil {
			return fmt.Errorf("create table %s: %w", t.name, err)
		}
		r.tables = append(r.tables, tab)
	}
	for _, sys := range r.systems {
		id := tr.begin("calibrate", root, -1, sys)
		t0 := time.Now()
		cal, err := sys.Calibrate(pioqo.CalibrationOptions{MaxReads: r.sc.calibReads})
		res.calibHost += time.Since(t0)
		tr.end(id, sys)
		if err != nil {
			return fmt.Errorf("calibrate: %w", err)
		}
		res.calibReads += cal.Reads
	}
	// Warm-up ops run untraced; their answers are not checked because the
	// oracle's reference state is defined by the measured ops alone, and
	// the warm-up ops are read-only.
	saved := r.tr
	r.tr = nil
	defer func() { r.tr = saved }()
	if r.sc.clients > 0 {
		if _, err := r.runRound(0, r.sc.warmup); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
		return nil
	}
	for _, o := range r.sc.warmup {
		if out := r.runOp(-1, o); out.err != nil {
			return fmt.Errorf("warm-up: %w", out.err)
		}
	}
	return nil
}

// callOpts are the options of a one-call op: the scenario's options, plus
// Cold() when it runs cold.
func (r *runner) callOpts() []pioqo.QueryOption {
	if r.sc.cold {
		return append([]pioqo.QueryOption{pioqo.Cold()}, r.opts...)
	}
	return r.opts
}

func (r *runner) query(o op) pioqo.Query {
	return pioqo.Query{Table: r.tables[o.tab], Low: o.lo, High: o.hi, Agg: o.agg}
}

// examined is the heap rows a plan examines, seen from outside: the whole
// table for a full scan, the matching rows for an index scan.
func examined(p pioqo.Plan, t *pioqo.Table, matched int64) int64 {
	if p.Method == pioqo.FullTableScan {
		return t.Rows()
	}
	return matched
}

// runOp runs one serial op (index i; -1 for warm-up).
func (r *runner) runOp(i int, o op) opResult {
	sys := r.systems[o.sys]
	if r.sc.faults != nil {
		r.arm(o)
	}
	tr := r.tr
	opSpan := tr.begin("op", -1, i, sys)
	defer tr.end(opSpan, sys)
	var out opResult
	switch o.kind {
	case opQuery:
		q := r.query(o)
		var res pioqo.Result
		var err error
		if tr == nil {
			res, err = sys.Query(r.ctx, q, r.callOpts()...)
		} else {
			// The traced run splits Query into its two public halves. Cold()
			// flushes before planning, so the flush comes first here too.
			if r.sc.cold {
				sys.FlushBufferPool()
			}
			id := tr.begin("plan", opSpan, i, sys)
			plan, perr := sys.Plan(q, pioqo.PlanOptions{})
			tr.end(id, sys)
			if perr != nil {
				return opResult{err: perr}
			}
			before := sys.MetricsSnapshot()
			id = tr.begin("execute", opSpan, i, sys)
			res, err = sys.ExecutePlan(q, plan, r.opts...)
			tr.end(id, sys)
			d := sys.MetricsSince(before)
			r.execPages += d.Counter("buffer.hits") + d.Counter("buffer.misses")
		}
		out = scanResult(res, err)
		out.examined = examined(res.Plan, q.Table, res.Rows)
	case opUpdate:
		id := tr.begin("update", opSpan, i, sys)
		res, err := sys.Update(pioqo.UpdateQuery{Table: r.tables[o.tab], Low: o.lo, High: o.hi, Delta: o.delta})
		tr.end(id, sys)
		out = opResult{err: err, lat: res.Runtime, runtime: res.Runtime, hasPlan: true, plan: res.Plan,
			parallel: res.Plan.Degree > 1, ans: answer{rows: res.RowsUpdated, found: true}}
	case opJoin:
		id := tr.begin("join", opSpan, i, sys)
		res, err := sys.ExecuteJoin(pioqo.JoinQuery{Build: r.tables[o.tab], Probe: r.tables[o.probe],
			Low: o.lo, High: o.hi, Agg: o.agg})
		tr.end(id, sys)
		out = opResult{err: err, lat: res.Runtime, runtime: res.Runtime,
			parallel: res.BuildPlan.Degree > 1 || res.ProbePlan.Degree > 1,
			hashJoin: res.Method == "HashJoin", joinRows: res.BuildRows + res.ProbeRows,
			ans: answer{value: res.Value, found: res.Found, rows: res.Pairs}}
	case opGroupBy:
		id := tr.begin("groupby", opSpan, i, sys)
		res, err := sys.ExecuteGroupBy(pioqo.GroupByQuery{Table: r.tables[o.tab], Low: o.lo, High: o.hi,
			GroupWidth: o.width, Agg: o.agg}, r.callOpts()...)
		tr.end(id, sys)
		out = opResult{err: err, lat: res.Runtime, runtime: res.Runtime, hasPlan: true, plan: res.Plan,
			parallel: res.Plan.Degree > 1, ans: answer{rows: res.Rows, found: true, groups: res.Groups}}
	}
	return out
}

func scanResult(res pioqo.Result, err error) opResult {
	return opResult{err: err, lat: res.Runtime, runtime: res.Runtime, hasPlan: true, plan: res.Plan,
		parallel: res.Plan.Degree > 1, shared: res.Plan.Shared,
		ans: answer{value: res.Value, found: res.Found, rows: res.Rows}}
}

// runRound submits one closed-loop round (op indexes first..) and drains
// it. The error is the first Submit or Drain error; per-op errors are also
// in the results.
func (r *runner) runRound(first int, ops []op) ([]opResult, error) {
	sys := r.systems[0]
	tr := r.tr
	round := tr.begin("round", -1, -1, sys)
	defer tr.end(round, sys)
	subs := make([]*pioqo.Submission, len(ops))
	out := make([]opResult, len(ops))
	var firstErr error
	for j, o := range ops {
		id := tr.begin("submit", round, first+j, sys)
		sub, err := sys.Submit(r.query(o))
		tr.end(id, sys)
		subs[j], out[j].err = sub, err
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	var before pioqo.MetricsSnapshot
	if tr != nil {
		before = sys.MetricsSnapshot()
	}
	id := tr.begin("drain", round, -1, sys)
	err := sys.Drain()
	tr.end(id, sys)
	if tr != nil {
		d := sys.MetricsSince(before)
		r.execPages += d.Counter("buffer.hits") + d.Counter("buffer.misses")
	}
	if err != nil && firstErr == nil {
		firstErr = err
	}
	for j, sub := range subs {
		if sub == nil {
			continue
		}
		res, err := sub.Result()
		adm := sub.Admission()
		out[j] = scanResult(res, err)
		out[j].wait = adm.Wait
		out[j].lat = adm.Wait + res.Runtime
		out[j].shared = adm.Shared
		out[j].examined = examined(res.Plan, r.tables[ops[j].tab], res.Rows)
	}
	return out, firstErr
}

// measure runs the scenario's ops, serially or in closed-loop rounds.
func (r *runner) measure(res *repResult) {
	sc := r.sc
	res.results = make([]opResult, 0, len(sc.ops))
	if sc.clients > 0 {
		for first := 0; first < len(sc.ops); first += sc.clients {
			last := min(first+sc.clients, len(sc.ops))
			out, _ := r.runRound(first, sc.ops[first:last])
			res.results = append(res.results, out...)
		}
		return
	}
	for i, o := range sc.ops {
		res.results = append(res.results, r.runOp(i, o))
	}
}

// runtime/metrics samples read around the measured phase.
var rtSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/gc/heap/allocs:bytes"},
}

func readRuntime() (gc, total float64, alloc uint64) {
	metrics.Read(rtSamples)
	return rtSamples[0].Value.Float64(), rtSamples[1].Value.Float64(), rtSamples[2].Value.Uint64()
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// runRep builds fresh systems, times the set-up, then runs and times the
// measured phase.
func runRep(sc *scenario, want []answer, tr *tracer) (repResult, error) {
	res := repResult{traced: tr != nil}
	r := newRunner(sc, tr)
	t0 := time.Now()
	if err := r.setup(&res); err != nil {
		return res, err
	}
	res.setup = time.Since(t0)
	res.heapBytes = liveHeap()

	snaps := make([]pioqo.MetricsSnapshot, len(r.systems))
	vstart := make([]time.Duration, len(r.systems))
	for i, sys := range r.systems {
		snaps[i], vstart[i] = sys.MetricsSnapshot(), sys.Now()
	}
	planner0, faults0, hedges0 := r.stats()
	gc0, cpu0, alloc0 := readRuntime()

	h0 := time.Now()
	r.measure(&res)
	res.measured = time.Since(h0)

	gc1, cpu1, alloc1 := readRuntime()
	res.gcCPU, res.totalCPU, res.allocBytes = gc1-gc0, cpu1-cpu0, alloc1-alloc0
	planner1, faults1, hedges1 := r.stats()
	res.planner = pioqo.PlannerStats{MemoHits: planner1.MemoHits - planner0.MemoHits, MemoMisses: planner1.MemoMisses - planner0.MemoMisses}
	res.faults = pioqo.FaultStats{Errors: faults1.Errors - faults0.Errors, Stragglers: faults1.Stragglers - faults0.Stragglers}
	res.hedges = pioqo.HedgeStats{Issued: hedges1.Issued - hedges0.Issued, Wins: hedges1.Wins - hedges0.Wins}
	res.counters, res.gauges = make(map[string]int64), make(map[string]float64)
	var gaugeTime float64
	for i, sys := range r.systems {
		v := sys.Now() - vstart[i]
		res.virt += v
		d := sys.MetricsSince(snaps[i])
		for name, n := range d.Counters {
			res.counters[name] += n
		}
		for name, g := range d.Gauges {
			res.gauges[name] += g.Mean * float64(v)
		}
		gaugeTime += float64(v)
	}
	for name := range res.gauges {
		res.gauges[name] = ratio(res.gauges[name], gaugeTime)
	}
	res.execPages = r.execPages
	res.checksum = checksum(res.results)
	for i, out := range res.results {
		switch {
		case out.err != nil:
			if res.errors == 0 {
				res.firstError = fmt.Sprintf("op %d %+v: %v", i, sc.ops[i], out.err)
			}
			res.errors++
			if errors.Is(out.err, pioqo.ErrDeviceFault) {
				res.exhausted++
			}
		case !out.ans.equal(want[i]):
			if res.mismatches == 0 {
				res.firstMismatch = fmt.Sprintf("op %d %+v: got %+v, oracle %+v", i, sc.ops[i], out.ans, want[i])
			}
			res.mismatches++
		}
	}
	if h := liveHeap(); h > res.heapBytes {
		res.heapBytes = h
	}
	return res, nil
}

// checksum hashes the engine's answers in op order, so two runs that
// returned the same answers print the same checksum.
func checksum(results []opResult) uint64 {
	h := fnv.New64a()
	for _, r := range results {
		if r.err != nil {
			fmt.Fprintf(h, "err;")
			continue
		}
		a := r.ans
		if !a.found {
			a.value = 0
		}
		fmt.Fprintf(h, "%d,%t,%d;", a.value, a.found, a.rows)
		for _, g := range a.groups {
			fmt.Fprintf(h, "g%d,%d,%d;", g.Key, g.Value, g.Rows)
		}
	}
	return h.Sum64()
}
