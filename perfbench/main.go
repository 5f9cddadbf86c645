// Command perfbench is the repository's benchmark. It runs one named
// workload against the public pioqo API, checks every answer against an
// oracle computed from the table generators, and prints the end-to-end
// metrics (or, with --trace 1, the per-layer metrics) as text lines and,
// last, as one JSON object.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload serving-ssd --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads, the metrics and the layer
// each per-layer metric is expected to move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line flags.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	spans    string
	short    bool // a shortened op list of the same shape; tests only
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	fl.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	fl.Int64Var(&o.seed, "seed", 1, "workload seed; table seeds and op streams derive from it")
	fl.IntVar(&o.seconds, "seconds", 10, "host seconds to keep repeating set-up plus measured phase")
	fl.IntVar(&o.trace, "trace", 0, "1 runs traced repetitions too and prints the per-layer metrics")
	fl.StringVar(&o.spans, "spans", "", "file for the traced run's spans (default <$CARGO_TARGET_DIR or .bench_build>/spans-<workload>-<seed>.jsonl)")
	if err := fl.Parse(args); err != nil {
		return o, err
	}
	if _, ok := findWorkload(o.workload); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(names, ", "))
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return o, fmt.Errorf("--seconds must be at least 1, got %d", o.seconds)
	}
	if o.spans == "" {
		// The same directory run.sh builds into.
		dir := os.Getenv("CARGO_TARGET_DIR")
		if dir == "" {
			dir = ".bench_build"
		}
		o.spans = filepath.Join(dir, fmt.Sprintf("spans-%s-%d.jsonl", o.workload, o.seed))
	}
	return o, nil
}

// Repetition floors: enough set-ups for a median, and in a traced run
// enough of each kind to compare them.
const (
	minUntraced = 3
	minTraced   = 2
)

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	return emit(o, stdout, stderr)
}

// emit runs the benchmark and prints its text lines and, last, the JSON
// result.
func emit(o options, stdout, stderr io.Writer) int {
	out, err := bench(o)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, line := range out.lines {
		fmt.Fprintln(stdout, line)
	}
	js, err := json.Marshal(out.result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(js))
	return 0
}

// jsonMetric and jsonResult are the last line of output.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

type benchOutput struct {
	lines  []string
	result jsonResult
}

// bench runs one workload: builds its scenario and oracle answers, then
// repeats set-up plus measured phase until the time is spent.
func bench(o options) (benchOutput, error) {
	w, _ := findWorkload(o.workload)
	sc := w.build(o.seed, o.short)
	var out benchOutput
	var reps []repResult

	var tr *tracer
	if o.trace == 1 {
		tr = &tracer{t0: time.Now(), rep: -1}
	}
	want, gen := oracleAnswers(sc, tr)
	layerIn := newLayerInputs(sc, gen)

	deadline := time.Now().Add(time.Duration(o.seconds) * time.Second)
	var untraced, traced int
	for time.Now().Before(deadline) || untraced < minUntraced || (tr != nil && traced < minTraced) {
		// A traced run alternates untraced and traced repetitions, so the
		// two see the same machine conditions.
		var repTr *tracer
		first := 0
		if tr != nil && untraced > traced {
			repTr = tr
			repTr.rep = len(reps)
			first = len(tr.spans)
		}
		rep, err := runRep(sc, want, repTr)
		if err != nil {
			return out, err
		}
		rep.ops, rep.classes = len(rep.results), latencyClasses(sc, rep.results)
		if repTr != nil {
			layerIn.rep, layerIn.spans = &rep, tr.spans[first:]
			rep.layers = layerMetrics(layerIn)
		}
		rep.results = nil
		reps = append(reps, rep)
		if repTr != nil {
			traced++
		} else {
			untraced++
		}
	}

	agree, repeats := true, true
	var attempted, errs, exhausted, mismatches int
	var firstErr, mismatch string
	for _, r := range reps {
		attempted += r.ops
		agree = agree && r.checksum == reps[0].checksum
		errs, exhausted, mismatches = errs+r.errors, exhausted+r.exhausted, mismatches+r.mismatches
		if r.virt != reps[0].virt || r.classes != reps[0].classes {
			repeats = false
		}
		if firstErr == "" {
			firstErr = r.firstError
		}
		if mismatch == "" {
			mismatch = r.firstMismatch
		}
	}

	out.lines = provenance(o, sc, reps)
	out.lines = append(out.lines,
		fmt.Sprintf("# checksum=%016x identical_across_repetitions=%t", reps[0].checksum, agree),
		fmt.Sprintf("# virtual metrics identical across repetitions: %t", repeats))
	if errs > 0 {
		out.lines = append(out.lines, fmt.Sprintf("# op errors: %d, of which %d retries exhausted (ErrDeviceFault); first: %s",
			errs, exhausted, firstErr))
	}
	if mismatch != "" {
		out.lines = append(out.lines, "# oracle mismatch: "+mismatch)
	}

	bounded, unbounded := endToEnd(reps)
	metrics := map[string]jsonMetric{}
	for _, m := range bounded {
		out.lines = append(out.lines, "metric "+m.String())
		if tr == nil {
			metrics[m.name] = jsonMetric{m.value, m.unit}
		}
	}
	for _, m := range unbounded {
		out.lines = append(out.lines, "metric "+m.String())
	}
	if tr != nil {
		layers := tracedLayers(reps)
		for _, m := range layers {
			out.lines = append(out.lines, "layer "+m.String())
			metrics[m.name] = jsonMetric{m.value, m.unit}
		}
		if err := saveSpans(o.spans, tr.spans); err != nil {
			return out, err
		}
		out.lines = append(out.lines, fmt.Sprintf("# spans: %d written to %s", len(tr.spans), o.spans))
	}

	out.result = jsonResult{Correct: agree && mismatches == 0, Attempted: attempted, Failed: errs + mismatches, Metrics: metrics}
	return out, nil
}

// generatorScan is the oracle's set-up cost: host time spent generating
// reference rows, and how many rows it generated.
type generatorScan struct {
	host time.Duration
	rows int64
}

// oracleAnswers computes the expected answer of every measured op. The
// reference tables are dropped before any repetition runs, so they do not
// count in the live heap.
func oracleAnswers(sc *scenario, tr *tracer) ([]answer, generatorScan) {
	var gen generatorScan
	id := tr.begin("oracle_scan", -1, -1, nil)
	o := &oracle{}
	for _, t := range sc.tables {
		t0 := time.Now()
		o.refs = append(o.refs, newRef(t))
		gen.host += time.Since(t0)
		gen.rows += t.rows
	}
	tr.end(id, nil)
	want := make([]answer, len(sc.ops))
	for i, op := range sc.ops {
		want[i] = o.apply(op)
	}
	return want, gen
}

// newLayerInputs fixes the parts of the per-layer inputs that do not
// change between repetitions.
func newLayerInputs(sc *scenario, gen generatorScan) layerInputs {
	in := layerInputs{sc: sc, planSpans: "plan", execSpans: "execute",
		genNsRow: ratio(float64(gen.host.Nanoseconds()), float64(gen.rows)), genRows: gen.rows}
	if sc.clients > 0 {
		in.planSpans, in.execSpans = "submit", "drain"
	}
	for _, o := range sc.ops {
		if o.class == classWrite {
			in.writeOps++
		}
	}
	return in
}

// tracedLayers reduces the traced repetitions to the per-layer metrics
// (medians over traced repetitions) plus obs.trace_overhead_frac.
func tracedLayers(reps []repResult) []metric {
	values := map[string][]float64{}
	notes := map[string]string{}
	var tracedOps, untracedOps []float64
	for _, r := range reps {
		opsPerS := float64(r.ops) / r.measured.Seconds()
		if !r.traced {
			untracedOps = append(untracedOps, opsPerS)
			continue
		}
		tracedOps = append(tracedOps, opsPerS)
		for name, m := range r.layers {
			values[name] = append(values[name], m.value)
			notes[name] = m.note
		}
	}
	values["obs.trace_overhead_frac"] = []float64{1 - ratio(median(tracedOps), median(untracedOps))}
	notes["obs.trace_overhead_frac"] = fmt.Sprintf("traced %.1f vs untraced %.1f ops/s",
		median(tracedOps), median(untracedOps))
	out := make([]metric, 0, len(layerNames))
	for _, l := range layerNames {
		out = append(out, metric{name: l.name, unit: l.unit, value: median(values[l.name]), note: notes[l.name]})
	}
	return out
}

// provenance stamps the result with what produced it.
func provenance(o options, sc *scenario, reps []repResult) []string {
	var untraced, traced int
	for _, r := range reps {
		if r.traced {
			traced++
		} else {
			untraced++
		}
	}
	lines := []string{
		fmt.Sprintf("# perfbench workload=%s seed=%d seconds=%d trace=%d", o.workload, o.seed, o.seconds, o.trace),
		"# " + sourceVersion(),
		fmt.Sprintf("# go=%s nproc=%d gomaxprocs=%d", runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0)),
		"# shape: " + strings.Join(sc.shape, "; "),
		fmt.Sprintf("# ops=%d per repetition; repetitions untraced=%d traced=%d", len(sc.ops), untraced, traced),
	}
	cls := reps[0].classes
	var tails []string
	for c := class(0); c < numClasses; c++ {
		if cls[c].n > 0 {
			tails = append(tails, fmt.Sprintf("%s=p%g(n=%d)", c, cls[c].pct, cls[c].n))
		}
	}
	return append(lines, "# tail percentiles: "+strings.Join(tails, " "))
}

// sourceVersion names the code measured: the git commit and dirty flag the
// binary was stamped with, or commit=unknown when it was built outside a git
// checkout.
func sourceVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			return fmt.Sprintf("commit=%s dirty=%s", rev, modified)
		}
	}
	return "commit=unknown"
}
