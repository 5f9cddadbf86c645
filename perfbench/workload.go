package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"pioqo"
	"pioqo/internal/experiments"
)

// opKind is the public call an op makes.
type opKind int

const (
	opQuery   opKind = iota // Query (serial workloads) or Submit (closed loop)
	opUpdate                // Update
	opJoin                  // ExecuteJoin
	opGroupBy               // ExecuteGroupBy
)

// op is one public call with its inputs, fixed before any system exists.
type op struct {
	kind   opKind
	sys    int // index into scenario.configs
	tab    int // index into scenario.tables (the build side of a join)
	probe  int // join probe side
	lo, hi int64
	agg    pioqo.Aggregate
	delta  int64 // Update
	width  int64 // GROUP BY key width
	class  class
}

// tableSpec is one table a scenario creates.
type tableSpec struct {
	sys       int
	name      string
	rows      int64
	rpp       int
	seed      int64
	synthetic bool
	zipf      float64
	partition pioqo.PartitionKind // sharded systems only
}

func (t tableSpec) options() []pioqo.TableOption {
	opts := []pioqo.TableOption{pioqo.WithTableSeed(t.seed)}
	if t.synthetic {
		opts = append(opts, pioqo.WithSyntheticData())
	}
	if t.zipf > 0 {
		opts = append(opts, pioqo.WithZipfData(t.zipf))
	}
	return append(opts, pioqo.WithPartition(t.partition))
}

// scenario is everything one workload run needs, generated from the
// workload seed: the systems, their tables, the warm-up and measured ops,
// and how the ops are driven.
type scenario struct {
	configs []pioqo.Config
	tables  []tableSpec
	warmup  []op // read-only, run during set-up and not measured
	ops     []op

	cold   bool                 // every serial Query and GROUP BY runs Cold()
	retry  *pioqo.RetryPolicy   // WithRetry on every op
	faults *pioqo.FaultSchedule // injected after Calibrate

	// groupByFaults, when set, replaces faults while GROUP BY ops run.
	groupByFaults *pioqo.FaultSchedule
	clients       int // > 0: closed loop of clients per round, Submit then Drain

	calibReads int
	shape      []string // "key=value" shape parameters for provenance
}

// workload names one benchmark workload and builds its scenario from a
// seed. short builds a smaller op list of the same shape, for tests.
type workload struct {
	name  string
	build func(seed int64, short bool) *scenario
}

var workloads = []workload{
	{"analytic-cold", analyticCold},
	{"serving-ssd", servingSSD},
	{"rw-hdd", rwHDD},
	{"cluster-stragglers", clusterStragglers},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// scale is the experiments package's default size: 12,288-page tables
// against a 1,024-frame pool on 8 simulated cores.
var scale = experiments.DefaultScale()

func baseConfig(dev pioqo.DeviceKind, seed int64) pioqo.Config {
	return pioqo.Config{Device: dev, PoolPages: scale.PoolPages, Cores: scale.Cores, Seed: seed}
}

// logGrid returns n log-spaced values from lo to hi inclusive.
func logGrid(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, float64(i)/float64(n-1))
	}
	return out
}

// strata returns n values log-spaced over [lo, hi], one at the middle of
// each of n equal strata, ascending: every seed gets the same values.
func strata(n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo * math.Pow(hi/lo, (float64(i)+0.5)/float64(n))
	}
	return out
}

func shuffle(rng *rand.Rand, ops []op) {
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
}

// width is the number of keys a range covering sel of domain spans.
func width(sel float64, domain int64) int64 {
	return min(max(int64(math.Round(sel*float64(domain))), 1), domain)
}

// keyRange places a range covering sel of domain at a seeded position.
func keyRange(rng *rand.Rand, sel float64, domain int64) (int64, int64) {
	w := width(sel, domain)
	lo := rng.Int63n(domain - w + 1)
	return lo, lo + w - 1
}

// place gives each selectivity of domain a range whose start is drawn from
// its own equal slice of the first keys keys: every seed then spreads the
// ranges evenly over those keys, so on skewed data the same number of them
// reach the dense head. The j-th selectivity takes slice j*stride mod n, a
// fixed interleaving, so which widths meet the dense head does not change
// with the seed either; the seed only places each range within its slice.
func place(rng *rand.Rand, sels []float64, domain, keys int64) [][2]int64 {
	n := int64(len(sels))
	stride := interleave(n)
	out := make([][2]int64, n)
	for j, sel := range sels {
		w := width(sel, domain)
		span, k := max(keys-w+1, 1), int64(j)*stride%n
		a, b := span*k/n, span*(k+1)/n
		lo := a + rng.Int63n(max(b-a, 1))
		out[j] = [2]int64{lo, lo + w - 1}
	}
	return out
}

// interleave returns a stride coprime with n near n/φ, so j*stride mod n
// visits every slice once and spreads consecutive (similar) widths far
// apart.
func interleave(n int64) int64 {
	s := max(int64(math.Round(float64(n)*0.618)), 1)
	for gcd(s, n) != 1 {
		s++
	}
	return s
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// repeat returns n copies of v.
func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func (sc *scenario) addTable(t tableSpec) int {
	sc.tables = append(sc.tables, t)
	return len(sc.tables) - 1
}

// query builds a Query op over table i with its class from the template.
func (sc *scenario) query(i int, lo, hi int64, agg pioqo.Aggregate) op {
	t := sc.tables[i]
	return op{kind: opQuery, sys: t.sys, tab: i, lo: lo, hi: hi, agg: agg,
		class: classify(opQuery, lo, hi, t.rows)}
}

// analyticCold is the paper's own evaluation: SELECT MAX(C1) over Table
// 1's E1/E33/E500 synthetic tables, on one SSD and one HDD system, at
// log-spaced selectivities from 1e-6 to 1, one cold query at a time.
func analyticCold(seed int64, short bool) *scenario {
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{cold: true, calibReads: scale.CalibReads}
	for s, dev := range []pioqo.DeviceKind{pioqo.SSD, pioqo.HDD} {
		sc.configs = append(sc.configs, baseConfig(dev, rng.Int63()))
		for _, rpp := range []int{1, 33, 500} {
			sc.addTable(tableSpec{sys: s, name: fmt.Sprintf("E%d", rpp),
				rows: scale.Pages * int64(rpp), rpp: rpp, seed: rng.Int63(), synthetic: true})
		}
	}
	// Passes per system and class: the SSD runs its cheap short ops six
	// times and its long ops twice, the HDD its short ops three times and
	// its long ops four. Each class median then falls inside one device's
	// latency band (short on the SSD, long on the HDD) rather than on the
	// gap between the two, and the long class reaches 100 ops, so its tail
	// is p90, among the HDD's E500 scans, whose latency moves with the
	// seed, rather than p75, on the E1/E33 full scans, which take the same
	// time on most seeds.
	passes, sels := [2][2]int{{6, 2}, {3, 4}}, logGrid(1e-6, 1, 13)
	if short {
		passes, sels = [2][2]int{{1, 1}, {1, 1}}, logGrid(1e-6, 1, 4)
	}
	for i := range sc.tables {
		sc.warmup = append(sc.warmup, sc.query(i, 0, 0, pioqo.Max))
	}
	for i, t := range sc.tables {
		for pass := 0; pass < max(passes[0][0], passes[0][1], passes[1][0], passes[1][1]); pass++ {
			for _, sel := range sels {
				lo, hi := keyRange(rng, sel, t.rows)
				if o := sc.query(i, lo, hi, pioqo.Max); pass < passes[t.sys][o.class] {
					sc.ops = append(sc.ops, o)
				}
			}
		}
	}
	shuffle(rng, sc.ops)
	sc.shape = []string{
		"systems=SSD,HDD", "tables=E1,E33,E500 synthetic",
		fmt.Sprintf("table_pages=%d", scale.Pages), fmt.Sprintf("pool_pages=%d", scale.PoolPages),
		fmt.Sprintf("selectivities=%d log-spaced 1e-6..1", len(sels)), fmt.Sprintf("passes short/long=SSD %d/%d, HDD %d/%d", passes[0][0], passes[0][1], passes[1][0], passes[1][1]),
		"loop=serial Query(Cold())",
	}
	return sc
}

// servingSSD is a closed loop on one SSD system: each round every client
// Submits one query, then the round Drains. About 80% are point lookups on
// a hot 1% key stripe, 17% ranges of 0.01%-1% of the domain and 3% full
// scans, over three tables.
func servingSSD(seed int64, short bool) *scenario {
	const tables, rpp, clients = 3, 2, 32
	rounds := 40
	if short {
		rounds = 6
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{clients: clients, calibReads: scale.CalibReads}
	sc.configs = append(sc.configs, baseConfig(pioqo.SSD, rng.Int63()))
	rows := scale.Pages * rpp
	hotWidth := rows / 100
	hot := make([]int64, tables)
	for i := range hot {
		sc.addTable(tableSpec{name: fmt.Sprintf("s%d", i), rows: rows, rpp: rpp, seed: rng.Int63(), synthetic: true})
		hot[i] = rng.Int63n(rows - hotWidth + 1)
		sc.warmup = append(sc.warmup, sc.query(i, hot[i], hot[i], pioqo.Max))
	}
	// Every round, each client submits in client order: clients 0-25 look
	// up hot points, 26-30 read ranges (widths stratified over all rounds)
	// and 31 runs a full scan, which therefore always plans against the
	// round's live interest in its table.
	const points, ranges = 26, 5
	widths := strata(rounds*ranges, 1e-4, 1e-2)
	for r := 0; r < rounds; r++ {
		for j := 0; j < clients; j++ {
			i := (r + j) % tables
			switch {
			case j < points:
				k := hot[i] + rng.Int63n(hotWidth)
				sc.ops = append(sc.ops, sc.query(i, k, k, pioqo.Max))
			case j < points+ranges:
				lo, hi := keyRange(rng, widths[(j-points)*rounds+r], rows)
				sc.ops = append(sc.ops, sc.query(i, lo, hi, pioqo.Max))
			default:
				sc.ops = append(sc.ops, sc.query(i, 0, rows-1, pioqo.Max))
			}
		}
	}
	sc.shape = []string{
		fmt.Sprintf("clients=%d", clients), fmt.Sprintf("rounds=%d", rounds),
		fmt.Sprintf("tables=3 synthetic x %d rows (rpp %d)", rows, rpp),
		fmt.Sprintf("hot_stripe_keys=%d per table", hotWidth),
		fmt.Sprintf("pool_pages=%d", scale.PoolPages),
		"clients 0-25 hot points, 26-30 ranges 1e-4..1e-2, 31 full scan",
		"loop=closed: Submit x clients, then Drain",
	}
	return sc
}

// rwHDD is a serial read-write stream on one HDD system over a uniform and
// a Zipf-1.3 materialized table: about 40% narrow Updates, 49% range
// Queries, 9% joins and 2% GROUP BYs.
func rwHDD(seed int64, short bool) *scenario {
	const rpp = 33
	n := 960
	if short {
		n = 60
	}
	rng := rand.New(rand.NewSource(seed))
	sc := &scenario{calibReads: scale.CalibReads}
	sc.configs = append(sc.configs, baseConfig(pioqo.HDD, rng.Int63()))
	rows := scale.Pages * rpp
	u := sc.addTable(tableSpec{name: "uniform", rows: rows, rpp: rpp, seed: rng.Int63()})
	z := sc.addTable(tableSpec{name: "zipf", rows: rows, rpp: rpp, seed: rng.Int63(), zipf: 1.3})
	aggs := []pioqo.Aggregate{pioqo.Max, pioqo.Count, pioqo.Sum}
	for _, i := range []int{u, z} {
		sc.warmup = append(sc.warmup, sc.query(i, rows/2, rows/2, pioqo.Max))
	}
	// The mix is exact, not drawn: every seed runs the same op kinds,
	// widths and table split, and the seed places and orders them.
	table := func(j int) int {
		if j%10 < 3 {
			return z
		}
		return u
	}
	// Each kind's ops on each table are placed together, spread evenly
	// over the keys.
	add := func(sels []float64, table func(j int) int, mk func(j, tab int, lo, hi int64) op) {
		for _, tab := range []int{u, z} {
			var group []float64
			var idx []int
			for j, sel := range sels {
				if table(j) == tab {
					group, idx = append(group, sel), append(idx, j)
				}
			}
			for g, r := range place(rng, group, rows, rows) {
				sc.ops = append(sc.ops, mk(idx[g], tab, r[0], r[1]))
			}
		}
	}
	nUpd, nQuery, nJoin := n*40/100, n*49/100, n*9/100
	add(strata(nUpd, 1/float64(rows), 1e-3), table, func(j, tab int, lo, hi int64) op {
		return op{kind: opUpdate, tab: tab, lo: lo, hi: hi, delta: 1 + rng.Int63n(1000), class: classWrite}
	})
	// Half the queries are narrow (8-24 keys) and half wide (0.1%-10% of
	// the domain). A narrow band keeps the short class's median on a
	// dense part of its latency distribution.
	queries := append(strata(nQuery/2, 2e-5, 6e-5), strata(nQuery-nQuery/2, 1e-3, 1e-1)...)
	add(queries, table, func(j, tab int, lo, hi int64) op { return sc.query(tab, lo, hi, aggs[j%len(aggs)]) })
	add(strata(nJoin, 1e-4, 1e-2), func(int) int { return u }, func(j, tab int, lo, hi int64) op {
		return op{kind: opJoin, tab: u, probe: z, lo: lo, hi: hi, agg: aggs[j%len(aggs)], class: classLong}
	})
	add(strata(n-nUpd-nQuery-nJoin, 1e-3, 1e-1), table, func(j, tab int, lo, hi int64) op {
		return op{kind: opGroupBy, tab: tab, lo: lo, hi: hi, width: rows / 64, agg: aggs[j%len(aggs)], class: classLong}
	})
	shuffle(rng, sc.ops)
	sc.shape = []string{
		fmt.Sprintf("tables=uniform,zipf-1.3 materialized x %d rows (rpp %d)", rows, rpp),
		fmt.Sprintf("pool_pages=%d", scale.PoolPages), fmt.Sprintf("ops=%d", n),
		"mix=40% updates <=1e-3, 49% queries (half 2e-5..6e-5, half 1e-3..1e-1), 9% joins uniform->zipf, 2% group-by",
		"loop=serial",
	}
	return sc
}

// clusterStragglers is a 4-shard SSD cluster with hash- and
// range-partitioned Zipf tables, running serial scatter-gather MAX, COUNT
// and GROUP BY ops across a selectivity grid with retries, under a seeded
// schedule of 20 ms stragglers and rare transient read errors.
func clusterStragglers(seed int64, short bool) *scenario {
	// A milder skew than rw-hdd's spreads the rows over more of the keys.
	const clusterZipf = 1.1
	const shards, rpp = 4, 33
	rng := rand.New(rand.NewSource(seed))
	cfg := baseConfig(pioqo.SSD, rng.Int63())
	cfg.Shards = shards
	sc := &scenario{
		configs:    []pioqo.Config{cfg},
		cold:       true,
		retry:      &pioqo.RetryPolicy{MaxAttempts: 8},
		calibReads: scale.CalibReads,
		faults: &pioqo.FaultSchedule{Seed: rng.Int63(), Windows: []pioqo.FaultWindow{{
			From: 0, To: 24 * time.Hour,
			StragglerRate: 0.002, StragglerLatency: 20 * time.Millisecond,
			ErrorRate: 0.0005,
		}}},
	}
	// Sharded ExecuteGroupBy does not pass WithRetry's fault control to its
	// shard scans, so an injected read error panics the engine (a known
	// defect, see README.md). The GROUP BY ops therefore run last, under
	// the same stragglers without read errors.
	calm := *sc.faults
	calm.Windows = []pioqo.FaultWindow{sc.faults.Windows[0]}
	calm.Windows[0].ErrorRate = 0
	sc.groupByFaults = &calm
	rows := scale.Pages * rpp
	for _, p := range []pioqo.PartitionKind{pioqo.PartitionHash, pioqo.PartitionRange} {
		i := sc.addTable(tableSpec{name: "zipf-" + p.String(), rows: rows, rpp: rpp,
			seed: rng.Int63(), zipf: clusterZipf, partition: p})
		sc.warmup = append(sc.warmup, sc.query(i, rows/2, rows/2, pioqo.Max))
	}
	// Selectivities sit at the middles of the half-decade strata from 1e-6
	// to 1; the six below 1e-3 give the short ops. Each (table,
	// selectivity) pair's long ranges are spread evenly over the key
	// domain, its short ones over the first twentieth of it, which holds
	// 88% of a Zipf-1.1 table's rows. Over the whole domain 40% of the
	// short ops would find no row, and their median would be the B-tree
	// descent to an absent key: the same page reads, in the same time, on
	// every seed.
	passes, sels := 10, strata(12, 1e-6, 1)
	if short {
		passes, sels = 1, strata(6, 1e-6, 1)
	}
	var groupBys []op
	for i := range sc.tables {
		for _, sel := range sels {
			// Short ops are cheap to run, so they get 4.2 times the
			// positions: 2 tables x 6 selectivities x 84 = 1,008 short ops,
			// enough for a p99 tail. About a fifth of short ops meet a
			// straggler, and over 1% meet two in a row, so p99 lies on that
			// plateau near 44 ms.
			n, keys := 2*passes, rows
			if sel <= shortFrac {
				n, keys = 84*passes/10, rows/20
			}
			for j, r := range place(rng, repeat(sel, n), rows, keys) {
				agg := []pioqo.Aggregate{pioqo.Max, pioqo.Count}[j%2]
				sc.ops = append(sc.ops, sc.query(i, r[0], r[1], agg))
			}
			for _, r := range place(rng, repeat(sel, passes), rows, rows) {
				groupBys = append(groupBys, op{kind: opGroupBy, tab: i, lo: r[0], hi: r[1],
					width: rows / 64, agg: pioqo.Max, class: classLong})
			}
		}
	}
	shuffle(rng, sc.ops)
	shuffle(rng, groupBys)
	sc.ops = append(sc.ops, groupBys...)
	sc.shape = []string{
		fmt.Sprintf("shards=%d", shards),
		fmt.Sprintf("tables=zipf-%g hash- and range-partitioned x %d rows (rpp %d)", clusterZipf, rows, rpp),
		fmt.Sprintf("pool_pages=%d per node", scale.PoolPages),
		fmt.Sprintf("selectivities=%d half-decade strata 1e-6..1", len(sels)), fmt.Sprintf("passes=%d", passes),
		fmt.Sprintf("short ranges over keys 0..%d", rows/20-1),
		"faults=0.2% 20ms stragglers, 0.05% read errors (GROUP BY phase: no read errors)",
		"retry=8 attempts",
		"loop=serial Query(Cold()) / ExecuteGroupBy(Cold())",
	}
	return sc
}
