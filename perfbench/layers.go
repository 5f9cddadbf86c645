package main

import (
	"fmt"
	"sort"
	"time"

	"pioqo"
)

// endToEndNames are the end-to-end metrics every workload reports and
// BENCHMARK.json bounds. The write class and failed_frac are printed on
// the text lines where they apply but are not bounded: no write ops run on
// three of the four workloads, and failed_frac is 0 on a healthy run.
var endToEndNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_ops_per_s", "1/s"},
	{"host_live_heap_mb", "MB"},
	{"virt_qps", "1/s"},
	{"short_p50_ms", "ms"},
	{"short_tail_ms", "ms"},
	{"long_p50_ms", "ms"},
	{"long_tail_ms", "ms"},
}

// layerNames are the per-layer metrics of the traced run, in print order.
var layerNames = []struct{ name, unit string }{
	{"table.create_s", "s"},
	{"calibrate.host_s", "s"},
	{"calibrate.sim_reads", "count"},
	{"opt.host_us_per_plan", "us"},
	{"opt.memo_hit_frac", "frac"},
	{"opt.plans_enumerated_per_plan", "1/plan"},
	{"opt.parallel_plan_frac", "frac"},
	{"cost.est_over_actual.FTS", "ratio"},
	{"cost.est_over_actual.PFTS", "ratio"},
	{"cost.est_over_actual.IS", "ratio"},
	{"cost.est_over_actual.PIS", "ratio"},
	{"exec.host_ns_per_page", "ns/page"},
	{"exec.host_ns_per_row", "ns/row"},
	{"table.host_ns_per_row", "ns/row"},
	{"runtime.gc_cpu_frac", "frac"},
	{"runtime.alloc_bytes_per_op", "B/op"},
	{"broker.wait_p50_ms", "ms"},
	{"broker.wait_tail_ms", "ms"},
	{"broker.wait_frac", "frac"},
	{"broker.replans_per_op", "1/op"},
	{"broker.credit_use_frac", "frac"},
	{"broker.shared_admission_frac", "frac"},
	{"buffer.hit_frac", "frac"},
	{"buffer.evictions_per_op", "1/op"},
	{"buffer.prefetch_pages_per_read", "pages/read"},
	{"buffer.dirty_writes_per_write", "1/write"},
	{"scanshare.riders_per_lap", "riders/lap"},
	{"device.requests_per_op", "1/op"},
	{"device.bytes_per_op", "B/op"},
	{"device.mean_latency_us", "us"},
	{"device.queue_depth_mean", "requests"},
	{"fault.read_retries_per_op", "1/op"},
	{"fault.stragglers_per_op", "1/op"},
	{"shard.partials_per_op", "1/op"},
	{"shard.pruned_per_op", "1/op"},
	{"shard.hedges_per_op", "1/op"},
	{"shard.hedge_win_frac", "frac"},
	{"join.host_ns_per_row", "ns/row"},
	{"join.hash_frac", "frac"},
	{"obs.trace_overhead_frac", "frac"},
}

// classStats is one latency class of one repetition.
type classStats struct {
	n         int
	p50, tail time.Duration
	pct       float64 // the percentile tail was taken at
}

func latencyClasses(sc *scenario, results []opResult) [numClasses]classStats {
	var lats [numClasses][]time.Duration
	for i, r := range results {
		if r.err == nil {
			c := sc.ops[i].class
			lats[c] = append(lats[c], r.lat)
		}
	}
	var out [numClasses]classStats
	for c, l := range lats {
		sort.Slice(l, func(i, j int) bool { return l[i] < l[j] })
		p := tailPercentile(len(l))
		out[c] = classStats{n: len(l), p50: nearestRank(l, 50), tail: nearestRank(l, p), pct: p}
	}
	return out
}

// endToEnd reduces the repetitions to the end-to-end metrics: host metrics
// are medians over the untraced repetitions, virtual metrics medians over
// all of them (they repeat exactly at a fixed seed, except where a known
// defect makes them diverge).
func endToEnd(reps []repResult) (bounded, unbounded []metric) {
	var setup, opsPerS, heap, qps []float64
	var p50, tail [numClasses][]float64
	var pct [numClasses]float64
	var errs, exhausted, mismatches, attempted int
	for _, r := range reps {
		n := float64(r.ops)
		if !r.traced {
			setup = append(setup, r.setup.Seconds())
			opsPerS = append(opsPerS, n/r.measured.Seconds())
			heap = append(heap, float64(r.heapBytes)/1e6)
		}
		qps = append(qps, n/r.virt.Seconds())
		for c, cs := range r.classes {
			if cs.n > 0 {
				p50[c] = append(p50[c], durMs(cs.p50))
				tail[c] = append(tail[c], durMs(cs.tail))
				pct[c] = cs.pct
			}
		}
		attempted += r.ops
		errs, exhausted, mismatches = errs+r.errors, exhausted+r.exhausted, mismatches+r.mismatches
	}
	values := map[string]float64{
		"setup_s":           median(setup),
		"host_ops_per_s":    median(opsPerS),
		"host_live_heap_mb": median(heap),
		"virt_qps":          median(qps),
	}
	notes := map[string]string{
		"setup_s":        fmt.Sprintf("median of %d set-ups", len(setup)),
		"host_ops_per_s": fmt.Sprintf("median of %d untraced repetitions", len(opsPerS)),
	}
	for c := class(0); c < numClasses; c++ {
		if len(p50[c]) == 0 {
			continue
		}
		n := reps[0].classes[c].n
		values[c.String()+"_p50_ms"] = median(p50[c])
		values[c.String()+"_tail_ms"] = median(tail[c])
		notes[c.String()+"_tail_ms"] = fmt.Sprintf("p%g of %d samples", pct[c], n)
		notes[c.String()+"_p50_ms"] = fmt.Sprintf("%d samples", n)
	}
	for _, m := range endToEndNames {
		v, ok := values[m.name]
		if !ok {
			continue
		}
		bounded = append(bounded, metric{name: m.name, unit: m.unit, value: v, note: notes[m.name]})
		delete(values, m.name)
	}
	for _, suffix := range []string{"_p50_ms", "_tail_ms"} {
		name := classWrite.String() + suffix
		if v, ok := values[name]; ok {
			unbounded = append(unbounded, metric{name: name, unit: "ms", value: v, note: notes[name]})
		}
	}
	unbounded = append(unbounded, metric{name: "failed_frac", unit: "frac",
		value: ratio(float64(errs+mismatches), float64(attempted)),
		note: fmt.Sprintf("%d of %d ops: %d errors (%d retries exhausted), %d oracle mismatches",
			errs+mismatches, attempted, errs, exhausted, mismatches)})
	return bounded, unbounded
}

// layerInputs is what the per-layer metrics of one traced repetition are
// computed from.
type layerInputs struct {
	sc        *scenario
	rep       *repResult
	spans     []span
	genNsRow  float64 // oracle generator scan, host ns per row
	genRows   int64
	writeOps  int
	planSpans string // the span that holds planning: "plan", or "submit" in a closed loop
	execSpans string // the span that holds execution: "execute", or "drain"
}

// layerMetrics computes one traced repetition's per-layer metrics, without
// obs.trace_overhead_frac (which needs the untraced repetitions too).
func layerMetrics(in layerInputs) map[string]metric {
	r, sc := in.rep, in.sc
	ops := float64(len(r.results))
	c := func(name string) float64 { return float64(r.counters[name]) }
	dur, count := totals(in.spans)
	out := make(map[string]metric)
	set := func(name string, v float64, note string) { out[name] = metric{name: name, value: v, note: note} }

	set("table.create_s", r.createHost.Seconds(), fmt.Sprintf("%d tables", len(sc.tables)))
	set("calibrate.host_s", r.calibHost.Seconds(), fmt.Sprintf("%d systems", len(sc.configs)))
	set("calibrate.sim_reads", float64(r.calibReads), "")

	plans := count[in.planSpans]
	set("opt.host_us_per_plan", ratio(float64(dur[in.planSpans].Nanoseconds())/1e3, float64(plans)),
		fmt.Sprintf("base %d %s calls", plans, in.planSpans))
	hits, misses := float64(r.planner.MemoHits), float64(r.planner.MemoMisses)
	set("opt.memo_hit_frac", ratio(hits, hits+misses), fmt.Sprintf("base %.0f memo lookups", hits+misses))
	set("opt.plans_enumerated_per_plan", ratio(c("opt.plans_enumerated"), c("opt.optimizations")),
		fmt.Sprintf("base %.0f optimizations", c("opt.optimizations")))

	var parallel, examinedRows, joinRows, joins, hashJoins, shared, submits float64
	var waits, lats time.Duration
	var waitList []time.Duration
	fam := map[string][]float64{}
	for i, res := range r.results {
		if res.err != nil {
			continue
		}
		if res.parallel {
			parallel++
		}
		examinedRows += float64(res.examined)
		if sc.ops[i].kind == opJoin {
			joins++
			joinRows += float64(res.joinRows)
			if res.hashJoin {
				hashJoins++
			}
		}
		if sc.clients > 0 {
			submits++
			waits += res.wait
			lats += res.lat
			waitList = append(waitList, res.wait)
			if res.shared {
				shared++
			}
		}
		if sc.cold && res.hasPlan && res.runtime > 0 {
			if f := family(res.plan); f != "" {
				fam[f] = append(fam[f], float64(res.plan.EstimatedCost)/float64(res.runtime))
			}
		}
	}
	set("opt.parallel_plan_frac", ratio(parallel, ops), fmt.Sprintf("base %.0f ops", ops))
	for _, f := range []string{"FTS", "PFTS", "IS", "PIS"} {
		set("cost.est_over_actual."+f, median(fam[f]), fmt.Sprintf("median of %d sole cold plans", len(fam[f])))
	}

	execNs := float64(dur[in.execSpans].Nanoseconds())
	set("exec.host_ns_per_page", ratio(execNs, float64(r.execPages)),
		fmt.Sprintf("base %d pages fetched in %s spans", r.execPages, in.execSpans))
	set("exec.host_ns_per_row", ratio(execNs, examinedRows), fmt.Sprintf("base %.0f heap rows examined", examinedRows))
	set("table.host_ns_per_row", in.genNsRow, fmt.Sprintf("base %d generated rows", in.genRows))

	set("runtime.gc_cpu_frac", ratio(r.gcCPU, r.totalCPU), fmt.Sprintf("base %.3f cpu-s", r.totalCPU))
	set("runtime.alloc_bytes_per_op", ratio(float64(r.allocBytes), ops), "")

	sort.Slice(waitList, func(i, j int) bool { return waitList[i] < waitList[j] })
	tp := tailPercentile(len(waitList))
	set("broker.wait_p50_ms", durMs(nearestRank(waitList, 50)), fmt.Sprintf("%d admissions", len(waitList)))
	set("broker.wait_tail_ms", durMs(nearestRank(waitList, tp)), fmt.Sprintf("p%g", tp))
	set("broker.wait_frac", ratio(float64(waits), float64(lats)), "base summed latency")
	set("broker.replans_per_op", ratio(c("broker.replans"), ops), "")
	set("broker.credit_use_frac", ratio(r.gauges["broker.credits_in_use"], r.gauges["broker.credits_total"]),
		fmt.Sprintf("base %.1f credits", r.gauges["broker.credits_total"]))
	set("broker.shared_admission_frac", ratio(shared, submits), fmt.Sprintf("base %.0f submits", submits))

	hm := c("buffer.hits") + c("buffer.misses")
	set("buffer.hit_frac", ratio(c("buffer.hits"), hm), fmt.Sprintf("base %.0f page fetches", hm))
	set("buffer.evictions_per_op", ratio(c("buffer.evictions"), ops), "")
	set("buffer.prefetch_pages_per_read", ratio(c("buffer.prefetched_pages"), c("buffer.prefetch_reads")),
		fmt.Sprintf("base %.0f prefetch reads", c("buffer.prefetch_reads")))
	set("buffer.dirty_writes_per_write", ratio(c("buffer.dirty_writes"), float64(in.writeOps)),
		fmt.Sprintf("base %d write ops", in.writeOps))
	set("scanshare.riders_per_lap", ratio(c("scanshare.attaches"), c("scanshare.laps")),
		fmt.Sprintf("base %.0f laps", c("scanshare.laps")))

	set("device.requests_per_op", ratio(c("device.requests"), ops), "")
	set("device.bytes_per_op", ratio(c("device.bytes"), ops), "")
	set("device.mean_latency_us", ratio(c("device.latency_ns")/1e3, c("device.requests")),
		fmt.Sprintf("base %.0f requests", c("device.requests")))
	set("device.queue_depth_mean", r.gauges["device.queue_depth"], "time-weighted over the measured phase")

	set("fault.read_retries_per_op", ratio(c("exec.read_faults"), ops), "")
	set("fault.stragglers_per_op", ratio(float64(r.faults.Stragglers), ops), "")
	set("shard.partials_per_op", ratio(c("shard.partials"), ops), "")
	set("shard.pruned_per_op", ratio(c("shard.pruned"), ops), "")
	set("shard.hedges_per_op", ratio(float64(r.hedges.Issued), ops), "")
	set("shard.hedge_win_frac", ratio(float64(r.hedges.Wins), float64(r.hedges.Issued)),
		fmt.Sprintf("base %d hedges", r.hedges.Issued))

	set("join.host_ns_per_row", ratio(float64(dur["join"].Nanoseconds()), joinRows),
		fmt.Sprintf("base %.0f build+probe rows", joinRows))
	set("join.hash_frac", ratio(hashJoins, joins), fmt.Sprintf("base %.0f joins", joins))
	return out
}

// family names a single-node plan's access-path family, or "" for plans
// outside the paper's four (shared, sorted or scatter-gather).
func family(p pioqo.Plan) string {
	if p.Shared || p.Fanout > 0 {
		return ""
	}
	switch p.Method {
	case pioqo.FullTableScan:
		if p.Degree > 1 {
			return "PFTS"
		}
		return "FTS"
	case pioqo.IndexScan:
		if p.Degree > 1 {
			return "PIS"
		}
		return "IS"
	}
	return ""
}
